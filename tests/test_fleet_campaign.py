"""Tests for fleet campaigns: determinism, checkpoint/resume, faults.

The campaign engine's central promises:

* fleet metrics are a pure function of the :class:`CampaignSpec` —
  independent of shard layout, worker count, interruption, and retry
  history;
* every completed shard is journalled durably, so an interrupted
  campaign resumes from checkpoints (counted in ``shards_resumed``)
  and finishes bit-identical to an uninterrupted run;
* a shard whose worker is killed mid-flight is retried and the
  campaign still completes identically;
* a shard that fails every attempt degrades the campaign to an
  explicit ``completeness < 1`` instead of poisoning it.

And the intervals the merge attaches to those metrics are the exact
ones: bit for bit what ``scipy.stats`` would return, computed without
importing it.
"""

import functools
import hashlib
import json
import os
import pickle
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.fleet import (
    CampaignCancelled,
    CampaignJournal,
    CampaignRunner,
    CampaignSpec,
    DriveClass,
    FleetSpec,
    JournalError,
    ScrubPolicySpec,
    campaign_digest,
    fleet_shard_task,
    loss_rate_interval,
    spec_from_dict,
    spec_to_dict,
    wilson_interval,
)
from repro.fleet.campaign import _z_for
from repro.parallel import RetryPolicy
from repro.verify import check_campaign_journal


def _spec(groups=60, shards=6, seed=3, mttf=2.0e4):
    """A small, loss-rich campaign that runs in well under a second.

    Latent windows are given explicitly so tests skip the (slower)
    schedule-driven MLET computation; the schedule path is covered by
    test_fleet_reliability.
    """
    return CampaignSpec(
        fleet=FleetSpec(
            groups=groups,
            disks_per_group=4,
            mttr_hours=24.0,
            spare_delay_hours=6.0,
            classes=(
                DriveClass(mttf_hours=mttf, lse_burst_rate_per_hour=2e-4),
            ),
        ),
        policies=(
            ScrubPolicySpec(name="weekly", latent_window_hours=84.0),
            ScrubPolicySpec(
                name="staggered", algorithm="staggered",
                latent_window_hours=60.0,
            ),
        ),
        mission_years=5.0,
        seed=seed,
        shards=shards,
    )


_FAST = RetryPolicy(max_attempts=3, backoff_base=0.0, backoff_max=0.0, jitter=0.0)


def _kill_shard_once(sentinel_dir, **params):
    """Shard task wrapper that SIGKILLs its worker once for shard 2."""
    sentinel = os.path.join(sentinel_dir, f"shard-{params['shard_index']}")
    if params["shard_index"] == 2 and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return fleet_shard_task(**params)


def _fail_shard(**params):
    """Shard task wrapper where shard 1 is irrecoverable."""
    if params["shard_index"] == 1:
        raise RuntimeError("irrecoverable shard")
    return fleet_shard_task(**params)


class TestSpec:
    def test_digest_is_stable_and_spec_sensitive(self):
        assert campaign_digest(_spec()) == campaign_digest(_spec())
        assert campaign_digest(_spec()) != campaign_digest(_spec(seed=4))
        assert campaign_digest(_spec()) != campaign_digest(_spec(groups=61))

    def test_digest_ignores_shard_count_only_via_spec(self):
        # Shard layout IS part of the spec (it names the checkpoints),
        # so a resharded campaign gets a fresh journal; the simulation
        # seeds don't know shards exist (test_fleet_kernel.py::
        # TestSeeding::test_a_group_s_generator_does_not_depend_on_its_batch).
        assert campaign_digest(_spec(shards=6)) != campaign_digest(_spec(shards=4))

    def test_shard_ranges_partition_the_fleet(self):
        spec = _spec(groups=10, shards=4)
        ranges = spec.shard_ranges()
        assert sum(count for _, count in ranges) == 10
        assert ranges == [(0, 3), (3, 3), (6, 2), (8, 2)]

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetSpec(raid_level="raid6")
        with pytest.raises(ValueError):
            FleetSpec(raid_level="raid1", disks_per_group=3)
        with pytest.raises(ValueError):
            DriveClass(preset="no-such-drive")
        with pytest.raises(ValueError):
            ScrubPolicySpec(name="x", algorithm="random")
        with pytest.raises(ValueError):
            CampaignSpec(
                policies=(
                    ScrubPolicySpec(name="dup"),
                    ScrubPolicySpec(name="dup", algorithm="staggered"),
                )
            )


def _typed_spec(np_types=True):
    """A spec whose every numeric field is a numpy scalar (``np_types``)
    or the same value as a Python number."""
    i64, i32, i16, u64 = (
        (np.int64, np.int32, np.int16, np.uint64) if np_types else (int,) * 4
    )
    f64, f32, f16 = (np.float64, np.float32, np.float16) if np_types else (float,) * 3
    return CampaignSpec(
        fleet=FleetSpec(
            groups=i64(40), disks_per_group=i32(4), mttr_hours=f64(12.0),
            classes=(DriveClass(
                mttf_hours=f64(2.0e4), lse_burst_rate_per_hour=f32(0.25),
                age_years=f16(1.5),
            ),),
        ),
        policies=(ScrubPolicySpec(
            name="weekly", regions=i64(64), latent_window_hours=f64(84.0),
        ),),
        mission_years=f32(5.0), seed=u64(3), shards=i16(2),
    )


def _bench_tiny_spec():
    """The service benchmark's tiny campaign: 24 groups, seed 0, 2 shards."""
    return CampaignSpec(
        fleet=FleetSpec(
            groups=24, disks_per_group=8, mttr_hours=24.0, spare_delay_hours=4.0,
            classes=(DriveClass(mttf_hours=1.0e5, lse_burst_rate_per_hour=1e-4),),
        ),
        policies=(
            ScrubPolicySpec(name="weekly", latent_window_hours=84.0),
            ScrubPolicySpec(
                name="staggered", algorithm="staggered", latent_window_hours=62.0
            ),
        ),
        mission_years=10.0, seed=0, shards=2,
    )


#: ``campaign_digest`` of these specs as computed with numpy loaded by
#: the release before ``canonicalize`` looked for numpy only in
#: ``sys.modules``: a job id must not depend on whether its process has
#: imported numpy.
PINNED_DIGESTS = {
    "bench-tiny": "fcaa00b1828a40745105d131b2fb47a2cf923fe28a15c1e869d9d5f845a41d9d",
    "numpy-typed": "dadc154dace7b31dc1f91961df703811975472f07bfcb2982ea6cdff0d3e0246",
}

#: Digests each JSON spec of argv[1] in an interpreter that cannot
#: import numpy at all.
_NO_NUMPY = """
import json, sys

class _NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            raise ImportError("numpy is blocked")

sys.meta_path.insert(0, _NoNumpy())
from repro.fleet import campaign_digest, spec_from_dict
digests = {name: campaign_digest(spec_from_dict(spec))
           for name, spec in json.loads(sys.argv[1]).items()}
assert "numpy" not in sys.modules
print(json.dumps(digests))
"""


class TestDigestWithoutNumpy:
    def test_numpy_scalars_digest_as_their_python_values(self):
        assert campaign_digest(_typed_spec()) == PINNED_DIGESTS["numpy-typed"]
        assert campaign_digest(_typed_spec(np_types=False)) == (
            PINNED_DIGESTS["numpy-typed"]
        )
        assert campaign_digest(_bench_tiny_spec()) == PINNED_DIGESTS["bench-tiny"]

    def test_a_process_without_numpy_gets_the_pinned_digests(self):
        specs = {
            "bench-tiny": spec_to_dict(_bench_tiny_spec()),
            "numpy-typed": spec_to_dict(_typed_spec(np_types=False)),
        }
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        done = subprocess.run(
            [sys.executable, "-c", _NO_NUMPY, json.dumps(specs)],
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == PINNED_DIGESTS


class TestDeterminism:
    def test_metrics_independent_of_shard_layout(self):
        few = CampaignRunner(_spec(shards=3)).run()
        many = CampaignRunner(_spec(shards=9)).run()
        assert few.metrics_dict()["policies"] == many.metrics_dict()["policies"]

    def test_serial_and_supervised_runs_identical(self):
        serial = CampaignRunner(_spec(), workers=0).run()
        supervised = CampaignRunner(_spec(), workers=3, retry=_FAST).run()
        assert serial.metrics_dict() == supervised.metrics_dict()
        assert supervised.supervision["attempts"] == supervised.shards_total

    def test_scrubbing_enters_through_the_latent_window(self):
        result = CampaignRunner(_spec(groups=120)).run()
        weekly, staggered = result.policies
        # Same failure draws; the only difference is the LSE exposure
        # window, so the shorter window can never lose MORE groups.
        assert staggered.losses_by_mode["double"] == weekly.losses_by_mode["double"]
        assert staggered.losses_by_mode["lse"] <= weekly.losses_by_mode["lse"]


class TestSupervisionReport:
    def test_sub_second_shards_report_the_workers_peak_rss(self):
        # Every shard ends inside one heartbeat interval (1 s), so no
        # heartbeat carries RSS: the workers' replies must.
        result = CampaignRunner(_spec(), workers=2, retry=_FAST).run()
        assert result.supervision["peak_rss_kb"] > 0


class TestCheckpointResume:
    def test_keyboard_interrupt_then_resume_is_bit_identical(self, tmp_path):
        baseline = CampaignRunner(_spec()).run()

        landed = []

        def bomb(shard_index, result):
            landed.append(shard_index)
            if len(landed) == 3:
                raise KeyboardInterrupt

        journal_dir = tmp_path / "journal"
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(_spec(), journal_dir=journal_dir, on_shard=bomb).run()
        assert len(landed) == 3

        resumed = CampaignRunner(_spec(), journal_dir=journal_dir).run()
        assert resumed.shards_resumed == 3
        assert resumed.shards_completed == resumed.shards_total == 6
        assert resumed.metrics_dict() == baseline.metrics_dict()

    def test_sigkilled_shard_worker_retried_and_identical(self, tmp_path):
        baseline = CampaignRunner(_spec()).run()
        task = functools.partial(_kill_shard_once, str(tmp_path))
        survived = CampaignRunner(
            _spec(), journal_dir=tmp_path / "journal",
            workers=2, retry=_FAST, task=task,
        ).run()
        assert survived.supervision["worker_deaths"] == 1
        assert survived.supervision["retries"] == 1
        assert survived.completeness == 1.0
        assert survived.metrics_dict() == baseline.metrics_dict()

    def test_one_and_two_workers_leave_the_same_journal(self, tmp_path):
        # A shard times its own policy phases ("phases" / "wall_s"), so
        # no two runs write the same checkpoint bytes; with those clock
        # readings zeroed, every byte must agree.
        def unclocked(result):
            return dict(
                result,
                phases=[dict(p, wall_s=0.0) for p in result["phases"]],
            )

        def entry(path):
            data = path.read_bytes()
            if path.suffix != ".pkl":
                return data
            header, payload = data[:71], data[71:]  # magic, digest, newline
            digest = hashlib.sha256(payload).hexdigest().encode()
            assert header == b"RPRC1\n" + digest + b"\n"
            return pickle.dumps(
                unclocked(pickle.loads(payload)), protocol=pickle.HIGHEST_PROTOCOL
            )

        spec = _spec(groups=64, shards=16)
        journals, landed = [], []
        for workers in (1, 2):
            journal_dir = tmp_path / f"journal-{workers}"
            shards = []
            CampaignRunner(
                spec, journal_dir=journal_dir, workers=workers,
                on_shard=lambda index, result: shards.append(
                    (index, pickle.dumps(unclocked(result)))
                ),
            ).run()
            journals.append({
                path.relative_to(journal_dir).as_posix(): entry(path)
                for path in sorted(journal_dir.rglob("*")) if path.is_file()
            })
            landed.append(shards)
        serial, supervised = journals
        assert len(serial) == 17  # the manifest and one checkpoint a shard
        assert supervised == serial
        assert sorted(landed[1]) == sorted(landed[0])
        assert sorted(index for index, _ in landed[1]) == list(range(16))

    def test_full_resume_does_zero_new_work(self, tmp_path):
        journal_dir = tmp_path / "journal"
        first = CampaignRunner(_spec(), journal_dir=journal_dir).run()

        def forbidden(**params):
            raise AssertionError("resume must not recompute shards")

        second = CampaignRunner(
            _spec(), journal_dir=journal_dir, task=forbidden
        ).run()
        assert second.shards_resumed == 6
        assert second.metrics_dict() == first.metrics_dict()

    def test_journal_refuses_foreign_campaign(self, tmp_path):
        journal_dir = tmp_path / "journal"
        CampaignRunner(_spec(), journal_dir=journal_dir).run()
        with pytest.raises(JournalError, match="refusing to mix"):
            CampaignJournal(journal_dir, _spec(seed=99))

    def test_corrupt_checkpoint_degrades_to_recompute(self, tmp_path):
        journal_dir = tmp_path / "journal"
        first = CampaignRunner(_spec(), journal_dir=journal_dir).run()
        journal = CampaignJournal(journal_dir, _spec())
        # Truncate one checkpoint on disk; the resume must evict it,
        # recompute that shard, and still merge identically.
        params = CampaignRunner.shard_param_sets(_spec())[2]
        path = journal.cache._path(journal.key_for(params))
        path.write_bytes(path.read_bytes()[:10])
        second = CampaignRunner(_spec(), journal_dir=journal_dir).run()
        assert second.shards_resumed == 5
        assert second.metrics_dict() == first.metrics_dict()


#: The checkpoint key of ``_spec()``'s shard 0, as every release since
#: the journal's keys last moved computes it.  A new value orphans every
#: checkpoint on disk: each old journal would resume as all misses.
_GOLDEN_KEY = "2e1f8ac223291dde1dd7a8ad675989067ca7eedeefb7e2450906185ac7f23133"


class TestManifestSchedule:
    """``manifest.json`` is a header the journal creates once and never
    rewrites; the checkpoints are the journal's only other state."""

    @pytest.fixture
    def manifest_writes(self, monkeypatch):
        writes = []
        for name in ("replace", "link"):
            real = getattr(os, name)

            def spy(src, dst, *args, _name=name, _real=real, **kwargs):
                if os.path.basename(dst) == "manifest.json":
                    writes.append(_name)
                return _real(src, dst, *args, **kwargs)

            monkeypatch.setattr(os, name, spy)
        return writes

    @staticmethod
    def _cancel_after(count):
        landed = []
        return (
            lambda shard_index, result: landed.append(shard_index),
            lambda: len(landed) >= count,
        )

    @staticmethod
    def _forbidden(**params):
        raise AssertionError("resume must not recompute shards")

    @pytest.mark.parametrize("workers", [0, 2])
    def test_a_fresh_run_writes_the_manifest_at_most_twice(
        self, workers, manifest_writes, tmp_path
    ):
        spec = _spec(groups=64, shards=16)
        result = CampaignRunner(
            spec, journal_dir=tmp_path / "journal", workers=workers
        ).run()
        assert result.shards_completed == 16
        assert manifest_writes == ["link"]  # created once, never replaced

    def test_a_full_resume_writes_nothing(self, manifest_writes, tmp_path):
        spec = _spec(groups=64, shards=16)
        journal_dir = tmp_path / "journal"
        CampaignRunner(spec, journal_dir=journal_dir).run()
        manifest = (journal_dir / "manifest.json").read_bytes()
        del manifest_writes[:]
        resumed = CampaignRunner(spec, journal_dir=journal_dir).run()
        assert resumed.shards_resumed == 16
        assert manifest_writes == []
        assert (journal_dir / "manifest.json").read_bytes() == manifest

    def test_the_manifest_is_a_format_3_header(self, tmp_path):
        spec = _spec(groups=64, shards=16)
        journal_dir = tmp_path / "journal"
        CampaignRunner(spec, journal_dir=journal_dir).run()
        expected = json.dumps(
            {
                "format": 3,
                "campaign_digest": campaign_digest(spec),
                "shards_total": 16,
            },
            indent=1,
            sort_keys=True,
        )
        assert (journal_dir / "manifest.json").read_text() == expected

    def test_the_checkpoint_key_is_the_golden_one(self, tmp_path):
        params = CampaignRunner.shard_param_sets(_spec())[0]
        assert CampaignJournal(tmp_path, _spec()).key_for(params) == _GOLDEN_KEY

    def test_a_cancelled_run_names_exactly_its_landed_shards(self, tmp_path):
        spec = _spec()
        on_shard, should_stop = self._cancel_after(4)
        with pytest.raises(CampaignCancelled):
            CampaignRunner(
                spec, journal_dir=tmp_path, on_shard=on_shard,
                should_stop=should_stop,
            ).run()
        assert check_campaign_journal(tmp_path, spec) == 4

    def test_a_raising_shard_leaves_the_earlier_shards_named(self, tmp_path):
        def fail_at_3(**params):
            if params["shard_index"] == 3:
                raise RuntimeError("shard 3 failed")
            return fleet_shard_task(**params)

        spec = _spec()
        with pytest.raises(RuntimeError, match="shard 3 failed"):
            CampaignRunner(spec, journal_dir=tmp_path, task=fail_at_3).run()
        assert check_campaign_journal(tmp_path, spec) == 3

    @staticmethod
    def _format_2_journal(journal_dir, spec, shards):
        """What an older release left: a format-2 manifest carrying the
        shard map ``shards``, and every shard's checkpoint."""
        CampaignRunner(spec, journal_dir=journal_dir).run()
        (journal_dir / "manifest.json").write_text(json.dumps(
            {
                "format": 2,
                "campaign_digest": campaign_digest(spec),
                "shards_total": spec.shards,
                "shards": shards,
            },
            indent=1,
            sort_keys=True,
        ))

    def test_a_format_2_journal_resumes_as_all_hits(self, tmp_path):
        spec = _spec(groups=64, shards=16)
        journal = CampaignJournal(tmp_path / "keys", spec)
        keys = {
            str(params["shard_index"]): journal.key_for(params)
            for params in CampaignRunner.shard_param_sets(spec)
        }
        journal_dir = tmp_path / "journal"
        self._format_2_journal(journal_dir, spec, keys)
        resumed = CampaignRunner(
            spec, journal_dir=journal_dir, task=self._forbidden
        ).run()
        assert resumed.shards_resumed == 16
        assert check_campaign_journal(journal_dir, spec) == 16

    def test_a_resume_names_checkpoints_a_killed_run_left_unnamed(
        self, tmp_path
    ):
        # A format-2 driver SIGKILLed before its end-of-run flush left
        # every checkpoint on disk and none of them in its map.
        spec = _spec()
        self._format_2_journal(tmp_path, spec, {})
        resumed = CampaignRunner(
            spec, journal_dir=tmp_path, task=self._forbidden
        ).run()
        assert resumed.shards_resumed == 6
        assert check_campaign_journal(tmp_path, spec) == 6


class TestGracefulDegradation:
    def test_irrecoverable_shard_reports_partial_completeness(self):
        result = CampaignRunner(
            _spec(), workers=2, retry=_FAST, task=_fail_shard
        ).run()
        assert result.shards_failed == 1
        assert result.failed_shards == [1]
        assert 0.0 < result.completeness < 1.0
        spec = _spec()
        done_groups = sum(
            count
            for index, (start, count) in enumerate(spec.shard_ranges())
            if index != 1
        )
        assert result.completeness == done_groups / spec.fleet.groups
        # Surviving shards still produce estimates over their groups.
        assert all(p.groups == done_groups for p in result.policies)
        assert result.telemetry["gauges"]["fleet.completeness"] < 1.0


class TestIntervalsExact:
    """``gammaincinv`` / ``ndtri`` against the ``scipy.stats`` calls they replaced."""

    CONFIDENCES = (0.9, 0.95, 0.99, 0.9999)

    def test_loss_rate_interval_is_the_chi_square_formula_bit_for_bit(self):
        from scipy.stats import chi2

        rng = np.random.default_rng(18)
        losses = np.arange(5001)
        exposure = rng.uniform(1.0, 1e9, size=len(losses))
        alpha = 1.0 - 0.95
        low = np.where(  # chi2.ppf(q, 0) is nan, and unused
            losses > 0, chi2.ppf(alpha / 2, 2 * losses) / 2, 0.0
        ) / exposure
        high = chi2.ppf(1 - alpha / 2, 2 * losses + 2) / 2 / exposure
        ours = np.array([
            loss_rate_interval(int(k), float(t)) for k, t in zip(losses, exposure)
        ])
        assert ours[:, 0].tobytes() == low.tobytes()
        assert ours[:, 1].tobytes() == high.tobytes()

    def test_z_is_norm_ppf_bit_for_bit(self):
        from scipy.stats import norm

        rng = np.random.default_rng(18)
        for confidence in (*self.CONFIDENCES, *rng.uniform(0.0, 1.0, size=2000)):
            confidence = float(confidence)
            assert _z_for(confidence).hex() == float(
                norm.ppf(0.5 + confidence / 2)
            ).hex()

    def test_the_95_percent_literal_is_the_computed_z(self):
        # wilson_interval carries the literal so the default path needs
        # no scipy on every merge; it may never disagree with _z_for.
        assert float(_z_for(0.95)).hex() == (1.959963984540054).hex()
        nudged = wilson_interval(7, 90, confidence=0.95 + 1e-12)
        assert wilson_interval(7, 90) == pytest.approx(nudged, rel=1e-9)

    def test_the_rate_is_bracketed_and_zero_losses_are_one_sided(self):
        low, high = loss_rate_interval(12, 1000.0)
        assert low < 12 / 1000.0 < high
        low, high = loss_rate_interval(0, 1000.0)
        assert low == 0.0 and high > 0.0

    def test_a_failing_scipy_surfaces_instead_of_changing_the_answer(self, monkeypatch):
        # There used to be a silent Wald fallback with z = 1.96 here.
        monkeypatch.setitem(sys.modules, "scipy.special", None)
        with pytest.raises(ImportError):
            loss_rate_interval(3, 1000.0)

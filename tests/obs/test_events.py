"""Event schema: wire round-trip, strict parsing, registry completeness."""

import dataclasses
import json

import pytest

from repro.obs.events import (
    EVENT_TYPES,
    BackendClosed,
    BackendOpened,
    CampaignCompleted,
    CampaignCreated,
    CampaignResumed,
    CandidateWindow,
    Event,
    FederationCompleted,
    FederationRouted,
    IntervalAccount,
    JobArrival,
    JobEvict,
    JobFinish,
    JobStart,
    MetricsSnapshot,
    PolicyDecision,
    PoolRespawned,
    RunMeta,
    ScalingPlanned,
    ServiceClockAdvanced,
    ServiceDrained,
    ServiceJobAdmitted,
    ServiceJobCancelled,
    ServiceJobRejected,
    ServiceStarted,
    ServiceStopped,
    SpecFailed,
    SpecRetried,
    SweepCompleted,
    SweepSubmitted,
    event_from_dict,
)

#: One representative instance per registered event type.
SAMPLES = [
    RunMeta(policy="carbon-time", workload="tiny", region="SA-AU",
            reserved_cpus=4, horizon=2880),
    JobArrival(time=30, job_id=1, queue="short", cpus=2, length=240),
    PolicyDecision(time=30, job_id=1, policy="carbon-time", start_time=90,
                   use_spot=False, reserved_pickup=False, num_segments=0,
                   memoized=False, arrival_ci_g_per_kwh=100.0,
                   start_ci_g_per_kwh=20.0, start_price_usd_per_mwh=None),
    CandidateWindow(time=30, latest=390, num_candidates=73, hold_minutes=240),
    JobStart(time=90, job_id=1, option="on_demand", duration=240, attempt=0),
    JobEvict(time=150, job_id=1, lost_cpu_minutes=120.0, preserved_minutes=0,
             evictions=1),
    JobFinish(time=330, job_id=1, waiting_minutes=60, evictions=0),
    IntervalAccount(job_id=1, start=90, end=330, cpus=2, option="on_demand",
                    carbon_g=12.5, energy_kwh=0.4, cost_usd=0.19),
    MetricsSnapshot(scope="engine", metrics={"counters": {"engine.jobs": 5.0}}),
    SweepSubmitted(total=4, executed=2, cache_hits=1, deduplicated=1, jobs=4),
    SweepCompleted(total=4, executed=2, cache_hits=1, deduplicated=1, jobs=4,
                   wall_seconds=0.25),
    SpecRetried(index=3, digest_prefix="a1b2c3d4e5f6", attempt=1,
                error_type="WorkerCrash", delay_seconds=0.07),
    SpecFailed(index=3, digest_prefix="a1b2c3d4e5f6", error_type="TimeoutError",
               message="execution exceeded 2s", attempts=2),
    PoolRespawned(reason="broken", respawns=1),
    BackendOpened(backend="pool", workers=4),
    BackendClosed(backend="pool", executed=16, respawns=2),
    CampaignCreated(name="sweep-fig8", total=96, distinct=48),
    CampaignResumed(name="sweep-fig8", completed=20, remaining=28),
    CampaignCompleted(name="sweep-fig8", executed=28, failed=0, remaining=0),
    FederationRouted(selector="greedy-spatial", home="SA-AU", regions=3, jobs=12,
                     migrated=7, migration_minutes=90),
    FederationCompleted(selector="greedy-spatial", policy="carbon-time",
                        regions=3, jobs=12, migrated=7, carbon_kg=4.2,
                        cost_usd=1.37),
    ScalingPlanned(speedup="amdahl:0.9", mode="greedy", work=240.0, deadline=720,
                   peak_cpus=4, cpu_minutes=276.0, carbon_g=31.5,
                   energy_kwh=0.46),
    ServiceStarted(policy="carbon-time", region="SA-AU", reserved_cpus=4,
                   max_pending=64, horizon=10080),
    ServiceJobAdmitted(time=30, job_id=1, queue="short", cpus=2, length=240),
    ServiceJobRejected(time=30, job_id=-1, reason="queue_full", status=503),
    ServiceJobCancelled(time=45, job_id=2),
    ServiceClockAdvanced(time=1440, from_time=30, pending=3),
    ServiceDrained(time=5460, jobs=12, carbon_g=6.73, cost_usd=0.28,
                   digest="66a44fa35132045a"),
    ServiceStopped(jobs_submitted=12, jobs_rejected=1, drained=True),
]


class TestRegistry:
    def test_every_sample_type_is_registered(self):
        assert {type(sample) for sample in SAMPLES} == set(EVENT_TYPES.values())

    def test_registry_keys_match_class_discriminators(self):
        for name, event_class in EVENT_TYPES.items():
            assert event_class.type == name

    def test_all_events_are_frozen_dataclasses(self):
        for event_class in EVENT_TYPES.values():
            assert dataclasses.is_dataclass(event_class)
            assert issubclass(event_class, Event)


class TestWireRoundTrip:
    @pytest.mark.parametrize("sample", SAMPLES, ids=lambda s: s.type)
    def test_to_dict_from_dict_round_trips(self, sample):
        assert event_from_dict(sample.to_dict()) == sample

    @pytest.mark.parametrize("sample", SAMPLES, ids=lambda s: s.type)
    def test_wire_form_is_json_serializable(self, sample):
        wire = sample.to_dict()
        assert wire["type"] == sample.type
        assert event_from_dict(json.loads(json.dumps(wire))) == sample


class TestStrictParsing:
    def test_unknown_type_raises_key_error(self):
        with pytest.raises(KeyError):
            event_from_dict({"type": "never_heard_of_it"})

    def test_missing_field_raises_type_error(self):
        wire = SAMPLES[1].to_dict()
        del wire["job_id"]
        with pytest.raises(TypeError):
            event_from_dict(wire)

    def test_unexpected_field_raises_type_error(self):
        wire = SAMPLES[1].to_dict()
        wire["surprise"] = 1
        with pytest.raises(TypeError):
            event_from_dict(wire)

    def test_input_dict_is_not_mutated(self):
        wire = SAMPLES[0].to_dict()
        event_from_dict(wire)
        assert "type" in wire

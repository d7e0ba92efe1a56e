"""Columnar results: reads that never build records, records that round-trip.

``SimulationResult`` keeps its outcome as columns and builds
``JobRecord`` objects only when ``records`` is read.  A figure row, a
summary, a digest, an equality check and a pickle round trip must all
work from the columns alone; and the records built on demand must be
the records the engine would have built -- multi-interval usage
included.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.cluster.spot import CheckpointConfig, HourlyHazard
from repro.difftest.scenarios import scenario_spec
from repro.simulator.reference import run_reference
from repro.simulator.results import SimulationResult
from repro.simulator.simulation import run_simulation


@pytest.fixture
def refuse_records(monkeypatch):
    """Make building records from columns an error for the test's duration."""

    def refuse(self):
        raise AssertionError("records were built from the columns")

    monkeypatch.setattr(SimulationResult, "_build_records", refuse)


def test_reads_never_build_records(refuse_records, tiny_workload, diurnal_carbon):
    result = run_simulation(
        tiny_workload,
        diurnal_carbon,
        "spot-res:carbon-time",
        reserved_cpus=4,
        eviction_model=HourlyHazard(0.1),
        checkpointing=CheckpointConfig(interval=30, overhead=2),
        retry_spot=True,
        spot_seed=3,
    )
    baseline = run_simulation(tiny_workload, diurnal_carbon, "nowait")
    # The figure-row totals, normalized to a baseline.
    assert result.total_carbon_kg / baseline.total_carbon_kg > 0
    assert result.total_cost / baseline.total_cost > 0
    assert result.mean_waiting_hours >= 0
    assert result.total_energy_kwh > 0 and result.baseline_carbon_g > 0
    assert result.lost_cpu_hours >= 0 and result.total_evictions >= 0
    assert result.by_queue()
    assert result.waiting_percentiles()
    assert sum(result.cpu_minutes_by_option().values()) > 0
    assert 0.0 <= result.reserved_utilization <= 1.0
    assert result.summary()
    digest = result.digest()
    copy = pickle.loads(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
    assert copy == result and copy != baseline
    assert copy.digest() == digest
    assert copy.summary() == result.summary()
    for read in (result, copy, baseline):
        assert read.__dict__["_records"] is None


def _usage_by_id(result: SimulationResult) -> dict[int, tuple]:
    return {record.job_id: record.usage for record in result.records}


def test_records_round_trip_over_difftest_scenarios():
    """Over seeded difftest scenarios, the lazily built records are exact.

    The reference engine builds its ``JobRecord`` objects directly, so
    its usage intervals -- multi-interval runs from evictions, checkpoint
    restarts and segment plans included -- are what the columns must
    reproduce, in order.
    """
    seen = {"evictions": 0, "checkpointing": 0, "segments": 0}
    for index in range(40):
        spec = scenario_spec(0, index)
        result = spec.run()
        copy = pickle.loads(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
        assert copy.digest() == result.digest(), index
        assert copy.records == result.records, index
        assert dataclasses.replace(result, records=result.records) == result, index
        # Schedules match the reference exactly (its accounting to ulps).
        reference = run_reference(**spec.to_kwargs())
        assert _usage_by_id(result) == _usage_by_id(reference), index
        multi_interval = False
        for record in result.records:
            multi_interval |= len(record.usage) > 1
            for before, after in zip(record.usage, record.usage[1:]):
                assert before.end <= after.start, (index, record.job_id)
        if multi_interval:
            if result.total_evictions:
                seen["evictions"] += 1
                seen["checkpointing"] += spec.checkpointing is not None
            else:
                seen["segments"] += 1
    assert all(seen.values()), seen

"""JobRecord / SimulationResult accounting."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.cluster.pricing import DEFAULT_PRICING, PricingModel, PurchaseOption
from repro.errors import SimulationError
from repro.simulator.results import (
    JobRecord,
    SimulationResult,
    UsageInterval,
    demand_profile,
)


def record(job_id=0, arrival=0, length=60, cpus=1, first_start=0, finish=60,
           carbon_g=10.0, usage_cost=0.1, baseline_carbon_g=20.0,
           usage=None, evictions=0, lost=0.0):
    usage = usage if usage is not None else (
        UsageInterval(first_start, finish, cpus, PurchaseOption.ON_DEMAND),
    )
    return JobRecord(
        job_id=job_id, queue="q", arrival=arrival, length=length, cpus=cpus,
        first_start=first_start, finish=finish, carbon_g=carbon_g,
        energy_kwh=0.01, usage_cost=usage_cost,
        baseline_carbon_g=baseline_carbon_g, usage=usage,
        evictions=evictions, lost_cpu_minutes=lost,
    )


def result(records, reserved=0, horizon=1440, pricing=DEFAULT_PRICING):
    return SimulationResult(
        policy_name="p", workload_name="w", region="r",
        reserved_cpus=reserved, horizon=horizon, pricing=pricing,
        records=tuple(records),
    )


class TestUsageInterval:
    def test_cpu_minutes(self):
        interval = UsageInterval(0, 30, 4, PurchaseOption.SPOT)
        assert interval.cpu_minutes == 120.0

    def test_rejects_empty(self):
        with pytest.raises(SimulationError):
            UsageInterval(10, 10, 1, PurchaseOption.SPOT)


class TestJobRecord:
    def test_waiting_and_completion(self):
        r = record(arrival=0, length=60, first_start=30, finish=90)
        assert r.completion_time == 90
        assert r.waiting_time == 30

    def test_carbon_saving(self):
        assert record(carbon_g=8.0, baseline_carbon_g=10.0).carbon_saving_g == 2.0

    def test_rejects_start_before_arrival(self):
        with pytest.raises(SimulationError):
            record(arrival=50, first_start=10, finish=100)

    def test_rejects_too_early_finish(self):
        with pytest.raises(SimulationError):
            record(length=60, first_start=0, finish=59)

    def test_options_used_deduplicated_in_order(self):
        usage = (
            UsageInterval(0, 10, 1, PurchaseOption.SPOT),
            UsageInterval(10, 40, 1, PurchaseOption.ON_DEMAND),
            UsageInterval(40, 60, 1, PurchaseOption.ON_DEMAND),
        )
        r = record(usage=usage)
        assert r.options_used == (PurchaseOption.SPOT, PurchaseOption.ON_DEMAND)


class TestSimulationResult:
    def test_totals(self):
        res = result([record(carbon_g=500.0), record(job_id=1, carbon_g=1500.0)])
        assert res.total_carbon_g == 2000.0
        assert res.total_carbon_kg == 2.0

    def test_cost_composition(self):
        pricing = PricingModel()
        res = result([record(usage_cost=1.0)], reserved=10, horizon=60, pricing=pricing)
        upfront = pricing.reserved_upfront(10, 60)
        assert res.total_cost == pytest.approx(1.0 + upfront)
        assert res.metered_cost == 1.0
        assert res.reserved_upfront_cost == pytest.approx(upfront)

    def test_carbon_tax(self):
        pricing = PricingModel(carbon_price_per_kg=2.0)
        res = result([record(carbon_g=1000.0, usage_cost=0.0)], pricing=pricing)
        assert res.carbon_tax_cost == pytest.approx(2.0)
        assert res.total_cost == pytest.approx(2.0)

    def test_waiting_stats(self):
        records = [
            record(first_start=0, finish=60),
            record(job_id=1, first_start=60, finish=120, arrival=0, length=60),
        ]
        res = result(records)
        assert res.mean_waiting_minutes == 30.0
        assert res.total_waiting_hours == 1.0

    def test_reserved_utilization_clipped_at_horizon(self):
        usage = (UsageInterval(0, 200, 1, PurchaseOption.RESERVED),)
        res = result([record(finish=200, length=200, usage=usage)],
                     reserved=1, horizon=100)
        assert res.reserved_utilization == 1.0

    def test_zero_reserved_utilization(self):
        assert result([record()]).reserved_utilization == 0.0

    def test_savings_and_cost_comparisons(self):
        base = result([record(carbon_g=100.0, usage_cost=1.0)])
        better = result([record(carbon_g=60.0, usage_cost=1.2)])
        assert better.carbon_savings_vs(base) == pytest.approx(0.4)
        assert better.cost_increase_vs(base) == pytest.approx(0.2)

    def test_accepts_empty_records(self):
        # An idle cluster is a legal outcome: every aggregate is zero and
        # no numpy empty-mean warnings leak (see tests/simulator/
        # test_empty_workload.py for the end-to-end regression).
        res = result([])
        assert res.total_carbon_g == 0.0
        assert res.mean_waiting_minutes == 0.0
        assert res.summary()

    def test_summary_keys(self):
        summary = result([record()]).summary()
        for key in ("policy", "carbon_kg", "cost_usd", "mean_wait_h"):
            assert key in summary

    def test_eviction_aggregates(self):
        res = result([record(evictions=2, lost=120.0)])
        assert res.total_evictions == 2
        assert res.lost_cpu_hours == 2.0


class TestMemoizedTotals:
    """Totals read the result's columns, once per column set.

    ``records`` is always a tuple; assigning it replaces the columns, so
    the totals follow the records they were computed from.
    """

    def records(self):
        return [
            record(carbon_g=0.1, usage_cost=0.2, first_start=0, finish=60),
            record(job_id=1, carbon_g=0.2, usage_cost=0.3, first_start=45, finish=105),
            record(job_id=2, carbon_g=0.3, usage_cost=0.1, first_start=7, finish=67),
        ]

    def test_values_equal_the_unmemoized_sums(self):
        res = result(self.records())
        for _ in range(2):
            for total, name in (
                (res.total_carbon_g, "carbon_g"),
                (res.baseline_carbon_g, "baseline_carbon_g"),
                (res.total_energy_kwh, "energy_kwh"),
                (res.metered_cost, "usage_cost"),
            ):
                expected = float(sum(getattr(r, name) for r in res.records))
                assert total.hex() == expected.hex(), name
            assert res.mean_waiting_minutes == (0 + 45 + 7) / 3

    def test_reassigning_records_recomputes(self):
        res = result(self.records())
        before = res.total_carbon_g
        res.records = res.records[:1]
        assert res.total_carbon_g == 0.1 != before
        assert res.mean_waiting_minutes == 0.0

    def test_an_assigned_list_is_stored_as_a_tuple(self):
        res = dataclasses.replace(result(self.records()), records=self.records())
        assert type(res.records) is tuple
        assert res.total_carbon_g == pytest.approx(0.6)
        res.records = [*res.records, record(job_id=3, carbon_g=1.0)]
        assert type(res.records) is tuple
        assert res.total_carbon_g == pytest.approx(1.6)

    def test_the_memo_is_not_pickled(self):
        for res in (result(self.records()), pickle.loads(pickle.dumps(result(self.records())))):
            fresh = pickle.dumps(res)
            assert b"JobRecord" not in fresh  # columns only, never the records
            res.summary()
            assert res.records and res.digest()
            assert pickle.dumps(res) == fresh
            assert pickle.loads(fresh) == res


class TestExactColumns:
    """A hand-built record is stored exactly or rejected, never coerced."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("carbon_g", 10),
            ("carbon_g", np.float64(10.0)),
            ("lost_cpu_minutes", 0),
            ("evictions", True),
            ("job_id", np.int64(0)),
            ("job_id", 2**63),
            ("queue", None),
        ],
        ids=[
            "int-as-float", "np.float64-as-float", "int-as-default-float", "bool-as-int",
            "np.int64-as-int", "int-beyond-int64", "none-as-queue",
        ],
    )
    def test_a_value_that_does_not_fit_its_column_raises(self, field, value):
        bad = dataclasses.replace(record(), **{field: value})
        with pytest.raises(SimulationError, match=field):
            result([bad])

    @pytest.mark.parametrize(
        "interval",
        [
            UsageInterval(np.int64(0), 60, 1, PurchaseOption.ON_DEMAND),
            UsageInterval(0, 60, True, PurchaseOption.ON_DEMAND),
            UsageInterval(0, 60, 1, "on_demand"),
        ],
        ids=["np.int64-start", "bool-cpus", "str-option"],
    )
    def test_an_interval_value_that_does_not_fit_raises(self, interval):
        with pytest.raises(SimulationError, match="usage_"):
            result([record(usage=(interval,))])

    def test_a_rejected_assignment_leaves_the_result_unchanged(self):
        res = result([record(carbon_g=2.5)])
        with pytest.raises(SimulationError):
            res.records = [record(carbon_g=3)]
        assert res.total_carbon_g == 2.5
        assert res.records == (record(carbon_g=2.5),)


class TestDemandProfile:
    def test_aggregate_and_filtered(self):
        usage = (
            UsageInterval(0, 10, 2, PurchaseOption.RESERVED),
            UsageInterval(10, 20, 2, PurchaseOption.ON_DEMAND),
        )
        records = [record(finish=20, length=20, usage=usage)]
        total = demand_profile(records, horizon=30)
        assert total[5] == 2 and total[15] == 2 and total[25] == 0
        reserved_only = demand_profile(records, horizon=30, option=PurchaseOption.RESERVED)
        assert reserved_only[5] == 2 and reserved_only[15] == 0

    def test_clips_past_horizon(self):
        usage = (UsageInterval(0, 100, 1, PurchaseOption.ON_DEMAND),)
        records = [record(finish=100, length=100, usage=usage)]
        profile = demand_profile(records, horizon=50)
        assert profile.size == 50
        assert profile[49] == 1

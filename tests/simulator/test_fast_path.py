"""Decision parity: per-arrival, batched and reference decisions agree.

An untraced engine precomputes every decision through the policies'
batched ``decide_many`` hooks (and, for contention-free runs, skips the
event loop); a traced engine asks the policy one ``decide()`` per
arrival so it can emit candidate-window events.  The two must be
*bit-identical*: these tests pin ``SimulationResult.digest()`` equality
between a traced and an untraced run for the full policy pool on three
pinned scenarios, compare both against the scalar reference engine,
check the decision-memo counters, and hold every window policy's
selection rule -- on its one-job and its flat-batch path -- against a
naive oracle with hypothesis.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CheckpointConfig,
    HourlyHazard,
    alibaba_like,
    region_trace,
    run_simulation,
    week_long_trace,
)
from repro.carbon import correlated_price_trace
from repro.carbon.trace import CarbonIntensityTrace
from repro.difftest.diff import compare_results
from repro.difftest.scenarios import POLICY_POOL
from repro.obs.tracer import NULL_TRACER, CollectingTracer
from repro.policies import CarbonTime, LowestWindow, PriceAware, WeightedCarbonPrice
from repro.policies.base import SchedulingContext
from repro.policies.scoring import candidate_batch
from repro.simulator.reference import run_reference
from repro.units import days, hours
from repro.workload.job import Job, JobQueue, QueueSet
from repro.workload.trace import WorkloadTrace


@pytest.fixture(scope="module")
def workload():
    return week_long_trace(alibaba_like(4_000, horizon=days(30), seed=13), num_jobs=150)


@pytest.fixture(scope="module")
def carbon_trace():
    return region_trace("ON-CA")


#: Three pinned scenarios: a contention-free run that the untraced
#: engine materializes without an event loop wherever no decision asks
#: for spot or reserved pickup, a deterministic reserved-pool run where
#: the perfect forecaster makes batched scoring live, and a stochastic
#: spot run (noisy forecaster, so the window policies' decide_many falls
#: back to per-job decide) that exercises the event loop under
#: evictions, checkpointing, retries, and boot overhead.
PINNED_SCENARIOS: dict[str, dict] = {
    "linear-perfect": dict(reserved_cpus=0, granularity=5),
    "reserved-perfect": dict(reserved_cpus=16, granularity=5),
    "spot-noisy": dict(
        reserved_cpus=6,
        eviction_model=HourlyHazard(0.12),
        checkpointing=CheckpointConfig(interval=30, overhead=2),
        retry_spot=True,
        forecast_sigma=0.08,
        forecast_seed=11,
        spot_seed=3,
        granularity=15,
        instance_overhead_minutes=2,
    ),
}


def _traced_and_untraced(workload, carbon_trace, policy, **kwargs):
    """The same run with per-arrival decisions (traced) and batched ones."""
    traced = run_simulation(
        workload, carbon_trace, policy, tracer=CollectingTracer(), **kwargs
    )
    untraced = run_simulation(workload, carbon_trace, policy, **kwargs)
    return traced, untraced


@pytest.mark.parametrize("scenario", sorted(PINNED_SCENARIOS))
@pytest.mark.parametrize("policy", POLICY_POOL)
def test_fast_path_digest_parity(workload, carbon_trace, policy, scenario):
    kwargs = PINNED_SCENARIOS[scenario]
    traced, untraced = _traced_and_untraced(workload, carbon_trace, policy, **kwargs)
    assert traced.metrics["counters"].get("engine.batched_decisions", 0.0) == 0.0
    assert untraced.digest() == traced.digest()
    diff = compare_results(run_reference(workload, carbon_trace, policy, **kwargs), untraced)
    assert diff.identical, diff.render()


@pytest.mark.parametrize("policy", ["price-aware", "carbon-price"])
def test_fast_path_digest_parity_price_policies(workload, carbon_trace, policy):
    # The reference engine takes no price trace, so these runs compare
    # the two optimized decision paths only.
    price = correlated_price_trace(carbon_trace, seed=5)
    kwargs = dict(reserved_cpus=8, price_trace=price, granularity=5)
    traced, untraced = _traced_and_untraced(workload, carbon_trace, policy, **kwargs)
    assert untraced.metrics["counters"]["engine.batched_decisions"] > 0
    assert untraced.digest() == traced.digest()


# ----------------------------------------------------------------------
# Decision-memo counters
# ----------------------------------------------------------------------
def _replicated_workload() -> WorkloadTrace:
    """Jobs sharing (arrival, queue, cpus, length) keys, some of them thrice."""
    distinct = [
        (hours(3) * i + 17 * (i % 4), 45 + 60 * (i % 3), 1 + i % 2) for i in range(12)
    ]
    jobs = []
    for index, (arrival, length, cpus) in enumerate(distinct):
        for _ in range(1 + index % 3):
            jobs.append(Job(job_id=len(jobs), arrival=arrival, length=length, cpus=cpus))
    return WorkloadTrace(jobs, name="replicated", horizon=days(3))


@pytest.mark.parametrize("reserved_cpus", [0, 3])
@pytest.mark.parametrize(
    "policy", ["carbon-time", "nowait", "wait-awhile", "res-first:lowest-window"]
)
def test_memo_counters_count_unique_keys(carbon_trace, policy, reserved_cpus):
    workload = _replicated_workload()
    unique = {(job.arrival, job.cpus, job.length) for job in workload}
    assert len(unique) < len(workload)
    traced, untraced = _traced_and_untraced(
        workload, carbon_trace, policy, reserved_cpus=reserved_cpus
    )
    assert untraced.digest() == traced.digest()
    for result in (traced, untraced):
        counters = result.metrics["counters"]
        assert counters["engine.policy_calls"] == len(unique)
        assert counters["engine.decision_memo_hits"] == len(workload) - len(unique)


# ----------------------------------------------------------------------
# Selection rules vs a naive oracle (hypothesis)
# ----------------------------------------------------------------------
# The oracle is the scalar search each window policy ran before the
# rules were shared between the one-job and batched paths, kept verbatim.
def _oracle_lowest_window(candidates, windows, arrival, estimate, weight):
    (footprints,) = windows
    tolerance = 1e-9 * max(1.0, float(np.max(footprints)))
    best = int(np.flatnonzero(footprints <= footprints.min() + tolerance)[0])
    return int(candidates[best])


def _oracle_carbon_time(candidates, windows, arrival, estimate, weight):
    (footprints,) = windows
    immediate = footprints[0]
    savings = immediate - footprints
    completion = candidates + estimate - arrival
    cst = savings / completion
    tolerance = 1e-9 * max(1.0, float(immediate))
    best = int(np.flatnonzero(cst >= cst.max() - tolerance / completion[0])[0])
    if savings[best] <= tolerance:
        return arrival
    return int(candidates[best])


def _oracle_price_aware(candidates, windows, arrival, estimate, weight):
    (prices,) = windows
    tolerance = 1e-9 * max(1.0, float(np.max(np.abs(prices))))
    best = int(np.flatnonzero(prices <= prices.min() + tolerance)[0])
    return int(candidates[best])


def _oracle_carbon_price(candidates, windows, arrival, estimate, weight):
    window_carbon_g, window_cost = windows

    def normalized(series: np.ndarray) -> np.ndarray:
        anchor = abs(float(series[0]))
        return series / anchor if anchor > 1e-12 else series

    blended = weight * normalized(window_carbon_g) + (1.0 - weight) * normalized(window_cost)
    tolerance = 1e-9 * max(1.0, float(np.max(np.abs(blended))))
    best = int(np.flatnonzero(blended <= blended.min() + tolerance)[0])
    return int(candidates[best])


#: Policy factory (by carbon weight), oracle, and the score sources'
#: view names, per window policy.
WINDOW_POLICIES = {
    "lowest-window": (lambda weight: LowestWindow(), _oracle_lowest_window, ("carbon",)),
    "carbon-time": (lambda weight: CarbonTime(), _oracle_carbon_time, ("carbon",)),
    "price-aware": (lambda weight: PriceAware(), _oracle_price_aware, ("price",)),
    "carbon-price": (WeightedCarbonPrice, _oracle_carbon_price, ("carbon", "price")),
}


class _ViewForecaster:
    """A forecaster answering from one precomputed window-integral view."""

    def __init__(self, view: np.ndarray, hold: int):
        self.view = view
        self.hold = hold

    def window_carbon_many(self, now: int, starts: np.ndarray, duration: int) -> np.ndarray:
        assert duration == self.hold
        return self.view[starts]

    def window_view(self, duration: int) -> np.ndarray:
        assert duration == self.hold
        return self.view


def _scalar_starts(arrival: int, max_wait: int, hold: int, horizon: int,
                   granularity: int) -> np.ndarray:
    """The real scalar grid, via the untouched candidate_starts method."""
    ctx = SimpleNamespace(
        carbon_horizon=horizon, granularity=granularity, tracer=NULL_TRACER
    )
    return SchedulingContext.candidate_starts(ctx, arrival, max_wait, hold)


def _draw_view(data, size: int, signed: bool, label: str) -> np.ndarray:
    """Window integrals: uniform noise, or a few levels with near-ties.

    The tie mode puts candidates within the rules' 1e-9 relative
    tolerance of each other, at magnitudes where the tolerance band is
    wider than float noise; ``signed`` views (prices) may be negative.
    """
    seed = data.draw(st.integers(0, 2**31 - 1), label=f"{label}_seed")
    rng = np.random.default_rng(seed)
    if data.draw(st.booleans(), label=f"{label}_ties"):
        levels = [-1e6, -2.5, 0.0, 250.0] if signed else [0.0, 250.0, 1e6]
        level = data.draw(st.sampled_from(levels), label=f"{label}_level")
        step = data.draw(st.sampled_from([0.0, 4e-4, 0.5]), label=f"{label}_step")
        return level + rng.integers(0, 3, size) * step
    low = -500.0 if signed else 0.0
    return rng.uniform(low, 500.0, size)


def _assert_rule_matches_oracle(
    name: str,
    weight: float,
    views: dict[str, np.ndarray],
    hold: int,
    max_wait: int,
    granularity: int,
    arrivals: list[int],
    horizon: int,
) -> None:
    """One-job ``decide`` and batched ``decide_many`` both equal the oracle."""
    make, oracle, sources = WINDOW_POLICIES[name]
    policy = make(weight)
    queue = JobQueue(name="q", max_length=hold, max_wait=max_wait, avg_length=float(hold))
    ctx = SchedulingContext(
        forecaster=_ViewForecaster(views["carbon"], hold),
        queues=QueueSet((queue,)),
        carbon_horizon=horizon,
        granularity=granularity,
        price_forecaster=_ViewForecaster(views["price"], hold),
    )
    jobs = [
        Job(job_id=i, arrival=arrival, length=hold, cpus=1, queue="q")
        for i, arrival in enumerate(arrivals)
    ]

    batched = policy.decide_many(jobs, ctx)
    for job, decision in zip(jobs, batched, strict=True):
        starts = _scalar_starts(job.arrival, max_wait, hold, horizon, granularity)
        if starts.size == 1:
            expected = int(starts[0])
        else:
            windows = [views[source][starts] for source in sources]
            expected = oracle(starts, windows, job.arrival, hold, weight)
        assert policy.decide(job, ctx).start_time == expected
        assert decision.start_time == expected


@given(data=st.data())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_batched_window_scoring_matches_scalar(data):
    name = data.draw(st.sampled_from(sorted(WINDOW_POLICIES)), label="policy")
    weight = data.draw(st.floats(0.0, 1.0), label="weight")
    horizon = 3_000
    hold = data.draw(st.integers(1, 900), label="hold")
    max_wait = data.draw(st.integers(0, 1_200), label="max_wait")
    granularity = data.draw(st.sampled_from([1, 5, 15, 30]), label="granularity")
    num_jobs = data.draw(st.integers(1, 8), label="num_jobs")
    arrivals = sorted(
        data.draw(
            st.lists(st.integers(0, horizon - hold), min_size=num_jobs, max_size=num_jobs),
            label="arrivals",
        )
    )
    # One score per feasible start minute, as window_view(hold) gives.
    views = {
        "carbon": _draw_view(data, horizon - hold + 1, signed=False, label="carbon"),
        "price": _draw_view(data, horizon - hold + 1, signed=True, label="price"),
    }
    _assert_rule_matches_oracle(
        name, weight, views, hold, max_wait, granularity, arrivals, horizon
    )

    # The flat grids themselves must match the scalar grids exactly.
    batch = candidate_batch(np.asarray(arrivals), max_wait, hold, horizon, granularity)
    if batch.index.size:
        flat = np.concatenate(
            [
                _scalar_starts(arrivals[i], max_wait, hold, horizon, granularity)
                for i in batch.index.tolist()
            ]
        )
        np.testing.assert_array_equal(batch.starts, flat)


def _edge_views(carbon: list[float], price: list[float], arrivals: list[int],
                hold: int, horizon: int) -> dict[str, np.ndarray]:
    """Flat views with the given per-candidate scores at every arrival.

    Candidates sit ``hold`` minutes apart (granularity = hold), so entry
    ``k`` of ``carbon``/``price`` is the score of starting at
    ``arrival + k * hold``; every other start scores like the arrival.
    """
    views = {
        "carbon": np.full(horizon - hold + 1, carbon[0]),
        "price": np.full(horizon - hold + 1, price[0]),
    }
    for arrival in arrivals:
        for k in range(len(carbon)):
            views["carbon"][arrival + k * hold] = carbon[k]
            views["price"][arrival + k * hold] = price[k]
    return views


#: Hand-built selection-rule edges the random views almost never hit.
#: Each row: policy, carbon weight, per-candidate carbon and price scores.
RULE_EDGES = {
    # Carbon-Time: the CST rule picks the first later start (saving
    # 9e-4 g), but that saving is within the 1e-9 * immediate tolerance
    # (1e-3 g), so the job must fall back to its arrival.
    "carbon-time-noise-saving": (
        "carbon-time", 1.0, [1e6, 1e6 - 9e-4, 1e6 - 3.6e-3], [1.0, 1.0, 1.0]
    ),
    # Carbon-Price: an immediate carbon of magnitude <= 1e-12 must not be
    # used as the normalizing anchor (the series stays as is).
    "carbon-price-tiny-carbon-anchor": (
        "carbon-price", 0.5, [1e-13, 2e-13, 1.0], [100.0, 50.0, 100.0]
    ),
    # Carbon-Price: the same for a tiny negative immediate price.
    "carbon-price-tiny-price-anchor": (
        "carbon-price", 0.5, [100.0, 50.0, 100.0], [-5e-13, 5e-12, 0.0]
    ),
}


@pytest.mark.parametrize("edge", sorted(RULE_EDGES))
def test_selection_rule_edges_match_oracle(edge):
    name, weight, carbon, price = RULE_EDGES[edge]
    hold, horizon = 60, 1_000
    arrivals = [0, 300]
    views = _edge_views(carbon, price, arrivals, hold, horizon)
    max_wait = (len(carbon) - 1) * hold
    # decide is checked per job; decide_many on a batch of one and of two.
    for jobs in ([arrivals[0]], arrivals):
        _assert_rule_matches_oracle(
            name, weight, views, hold, max_wait, hold, jobs, horizon
        )


@given(
    seed=st.integers(0, 2**31 - 1),
    num_hours=st.integers(2, 72),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_window_sums_matches_integrate_many_bitwise(seed, num_hours, data):
    hourly = np.random.default_rng(seed).uniform(10.0, 900.0, num_hours)
    trace = CarbonIntensityTrace(hourly, name="fuzz")
    duration = data.draw(
        st.integers(1, trace.horizon_minutes), label="duration"
    )
    sums = trace.window_sums(duration)
    starts = np.arange(sums.size, dtype=np.int64)
    expected = trace.integrate_many(starts, duration)
    # Bitwise equality, not allclose: both sides are the same
    # cum[s + d] - cum[s] over the same prefix sum.
    np.testing.assert_array_equal(sums, expected)

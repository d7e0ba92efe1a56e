"""Span arithmetic and the wrapping rules of the traced repetition."""

from __future__ import annotations

import asyncio
from types import SimpleNamespace

import pytest
from spans import Recorder, Target, installed, layer_metrics, root_coverage, summarize, targets


class Ticker:
    """A clock that advances one second per reading."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_self_time_subtracts_direct_children():
    recorder = Recorder(clock=Ticker())
    calls = SimpleNamespace(inner=lambda: None)

    def outer():
        calls.inner()
        calls.inner()

    calls.outer = outer
    with installed(recorder, [Target(calls, "outer", "a"), Target(calls, "inner", "b")]):
        calls.outer()

    # a: 1..6, b: 2..3 and 4..5
    summary = summarize(recorder.spans)
    assert summary["a"].self_s == 3.0
    assert summary["b"].self_s == 2.0
    assert (summary["a"].calls, summary["b"].calls) == (1, 2)
    assert sum(item.self_s for item in summary.values()) == recorder.spans[0].duration


def test_counts_come_from_outermost_spans_only():
    recorder = Recorder(clock=Ticker())
    calls = SimpleNamespace(same=lambda jobs: None)

    def middle(jobs):
        calls.same(jobs)

    def outer(jobs):
        calls.middle(jobs)

    calls.middle, calls.outer = middle, outer
    keys = lambda args, kwargs, result: {"keys": len(args[0])}  # noqa: E731
    wrap = [
        Target(calls, "outer", "layer", keys),
        Target(calls, "middle", "other"),
        Target(calls, "same", "layer", keys),
    ]
    with installed(recorder, wrap):
        calls.outer([1, 2, 3])

    # layer 1..6 > other 2..5 > layer 3..4: the inner layer span has a
    # same-name ancestor two levels up, so it adds time but no counts.
    summary = summarize(recorder.spans)
    assert summary["layer"].counts == {"keys": 3}
    assert summary["layer"].calls == 1
    assert summary["layer"].self_s == 2.0 + 1.0
    assert summary["other"].self_s == 2.0


def test_spot_res_counts_its_inner_decide_many_once():
    from repro.carbon.regions import region_trace
    from repro.simulator.simulation import build_engine
    from repro.workload.synthetic import poisson_exponential

    workload = poisson_exponential(horizon=2 * 1440, seed=3)
    engine = build_engine(workload, region_trace("SA-AU"), "spot-res:carbon-time", reserved_cpus=2)
    recorder = Recorder(clock=Ticker())
    with installed(recorder):
        engine.policy.decide_many(list(workload.jobs), engine.ctx)

    outer, inner = recorder.spans
    assert (outer.name, inner.name) == ("policies.decide_many", "policies.decide_many")
    assert inner.parent == 0
    metrics = layer_metrics(recorder.spans)
    assert metrics["policies.decide_many_keys"] == len(workload)
    assert metrics["policies.decide_many_s"] == outer.duration == 3.0


def _policies():
    from repro.errors import ReproError
    from repro.policies.registry import TIMING_POLICIES, WRAPPERS, make_policy

    built = []
    for timing in TIMING_POLICIES:
        for spec in (timing, *(f"{wrapper}:{timing}" for wrapper in WRAPPERS)):
            try:
                built.append(make_policy(spec))
            except ReproError:
                continue
    return built


def _owners(policy) -> tuple[type, type]:
    mro = type(policy).__mro__
    return tuple(next(c for c in mro if name in c.__dict__) for name in ("decide", "decide_many"))


def test_wrappers_touch_only_attributes_a_class_already_defines():
    from repro.simulator.engine import _batched_hook_consistent
    from repro.simulator.runner import ResultCache

    policies = _policies()
    classes = {cls for policy in policies for cls in type(policy).__mro__}
    owners = [target.owner for target in targets() if isinstance(target.owner, type)]
    classes |= {cls for owner in owners for cls in owner.__mro__}
    before = {cls: dict(cls.__dict__) for cls in classes}
    owners = [_owners(policy) for policy in policies]
    consistent = [_batched_hook_consistent(policy) for policy in policies]

    with installed(Recorder()):
        assert all(set(cls.__dict__) == set(attributes) for cls, attributes in before.items())
        assert [_owners(policy) for policy in policies] == owners
        assert [_batched_hook_consistent(policy) for policy in policies] == consistent
        assert ResultCache.__dict__["get"] is not before[ResultCache]["get"]

    for cls, attributes in before.items():
        for name, value in attributes.items():
            assert cls.__dict__[name] is value, (cls, name)


def test_wrapping_an_inherited_attribute_is_refused_and_undone():
    from repro.policies import ResFirst
    from repro.simulator.runner import ResultCache

    original = ResultCache.__dict__["get"]
    wrap = [Target(ResultCache, "get", "cache.get"), Target(ResFirst, "decide_many", "x")]
    with pytest.raises(AttributeError, match="does not itself define"):
        with installed(Recorder(), wrap):
            pass
    assert ResultCache.__dict__["get"] is original
    assert "decide_many" not in ResFirst.__dict__


def test_traced_sweep_and_service_keep_their_digests():
    import repro.simulator.runner as runner
    from repro.service import SchedulerService, ServiceConfig
    from repro.simulator.runner import ResultCache, RunStats, SimulationSpec
    from repro.workload.synthetic import poisson_exponential

    stream = poisson_exponential(mean_interarrival=20, horizon=2 * 1440, seed=5, name="service")
    config = ServiceConfig(policy="res-first:carbon-time", reserved_cpus=8, horizon_days=2)
    specs = [
        SimulationSpec.build(stream, config.carbon(), policy, reserved_cpus=reserved)
        for policy, reserved in (("carbon-time", 0), ("res-first:lowest-window", 6))
    ]

    async def serve() -> str:
        service = SchedulerService(config)
        await service.start()
        for job in stream.jobs:
            await service.submit(
                length=job.length, cpus=job.cpus, arrival=job.arrival, job_id=job.job_id
            )
        service.accounting()
        drained = await service.drain()
        await service.stop()
        return drained["digest"]

    def digests() -> list[str]:
        # Looked up at call time, as the benchmark does, so the wrapper applies.
        results = runner.run_many(specs, backend="serial", cache=ResultCache(), stats=RunStats())
        return [result.digest() for result in results] + [asyncio.run(serve())]

    plain = digests()
    recorder = Recorder()
    with installed(recorder):
        with recorder.span("root"):
            traced = digests()
    assert traced == plain

    spans = recorder.spans
    submits = [span for span in spans if span.name == "session.submit"]
    assert len(submits) == len(stream)
    assert all(spans[span.parent].name == "service.submit" for span in submits)
    metrics = layer_metrics(spans)
    assert metrics["runner.executed"] == 2
    assert metrics["cache.misses"] == 2
    assert metrics["service.accounting_calls"] == 1
    assert metrics["session.submit_calls"] == len(stream)
    assert root_coverage(spans, "root") > 0.5

"""Batch/online equivalence, bit for bit.

The central guarantee of the service work (docs/service.md): feeding a
trace's jobs one at a time -- through the engine session directly, or
over the full HTTP stack -- produces a ``SimulationResult.digest()``
bit-identical to a batch ``Engine.run`` over the same trace with the
same configuration. Regression-tested here across difftest scenario
seeds (the same frozen scenario distribution the differential oracle
runs) and end to end over the service's JSON/HTTP API.
"""

import asyncio

import pytest

from repro.difftest.scenarios import scenario_spec
from repro.service import SchedulerService, ServiceClient, ServiceConfig, ServiceServer
from repro.simulator import build_engine
from repro.workload.synthetic import poisson_exponential
from repro.workload.trace import WorkloadTrace


def _session_digest(kwargs) -> str:
    """Open + submit-per-job + drain over the prepared workload."""
    engine = build_engine(**kwargs)
    session = engine.open()
    for job in engine.workload.jobs:
        session.submit(job)
    return session.drain().digest()


class TestDifftestScenarioParity:
    """Session replay == batch run across the difftest scenario space."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("index", [0, 1])
    def test_submit_per_job_matches_batch_digest(self, seed, index):
        spec = scenario_spec(seed, index)
        batch = build_engine(**spec.to_kwargs()).run()
        assert _session_digest(spec.to_kwargs()) == batch.digest()

    def test_replay_matches_submit_per_job(self):
        spec = scenario_spec(0, 2)
        engine = build_engine(**spec.to_kwargs())
        session = engine.open()
        session.replay(engine.workload.jobs)
        assert session.drain().digest() == _session_digest(spec.to_kwargs())


def _parity_config(policy: str, seed: int) -> ServiceConfig:
    return ServiceConfig(
        policy=policy,
        region="SA-AU",
        horizon_days=2.0,
        workload_name=f"parity-{policy}-{seed}",
        max_pending=8,
    )


def _parity_trace(config: ServiceConfig, seed: int) -> WorkloadTrace:
    # The batch-side obligation from docs/service.md: the reference
    # trace must carry the config's workload name and horizon, because
    # both are part of the digest's identifying configuration.
    trace = poisson_exponential(
        horizon=config.horizon_minutes, seed=seed, mean_interarrival=40
    )
    return WorkloadTrace(
        list(trace.jobs), name=config.workload_name, horizon=config.horizon_minutes
    )


async def _serve_and_drain(config: ServiceConfig, trace: WorkloadTrace) -> dict:
    """Stream the trace over HTTP, drain, shut down; return the drain payload."""
    service = SchedulerService(config)
    await service.start()
    server = ServiceServer(service, port=0)
    host, port = await server.start()
    client = ServiceClient(host, port)
    try:
        for job in trace.jobs:
            scheduled = await client.submit(
                length=job.length, cpus=job.cpus, arrival=job.arrival, job_id=job.job_id
            )
            assert scheduled["job_id"] == job.job_id
        return await client.drain()
    finally:
        await client.shutdown()
        await server.serve_until_shutdown()


class TestHttpEndToEndParity:
    @pytest.mark.parametrize(
        ("policy", "seed"),
        [("carbon-time", 1), ("carbon-time", 2), ("nowait", 3), ("lowest-window", 4)],
    )
    def test_streamed_submissions_match_batch_digest(self, policy, seed):
        config = _parity_config(policy, seed)
        trace = _parity_trace(config, seed)
        batch = config.engine(trace).run()
        drained = asyncio.run(_serve_and_drain(config, trace))
        assert drained["jobs"] == len(trace.jobs)
        assert drained["digest"] == batch.digest()

    def test_accounting_after_drain_carries_the_batch_digest(self):
        config = _parity_config("carbon-time", 5)
        trace = _parity_trace(config, 5)
        batch = config.engine(trace).run()

        async def scenario():
            service = SchedulerService(config)
            await service.start()
            try:
                for job in trace.jobs:
                    await service.submit(
                        length=job.length,
                        cpus=job.cpus,
                        arrival=job.arrival,
                        job_id=job.job_id,
                    )
                await service.drain()
                return service.accounting(limit=10_000, detail=True)
            finally:
                await service.stop()

        accounting = asyncio.run(scenario())
        assert accounting["drained"] is True
        assert accounting["digest"] == batch.digest()
        by_id = {record.job_id: record for record in batch.records}
        assert len(accounting["jobs"]) == len(by_id)
        for row in accounting["jobs"]:
            record = by_id[row["job_id"]]
            assert row["finish"] == record.finish
            assert row["carbon_g"] == record.carbon_g
            assert row["energy_kwh"] == record.energy_kwh
            assert row["cost_usd"] == record.usage_cost

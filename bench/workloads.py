"""The benchmark's four workloads, one repetition per fresh interpreter.

``run.py`` starts this file once per repetition and once, untimed, to
prepare each workload::

    python bench/workloads.py WORKLOAD --seed N [--cache-dir D] [--trace-file F]
    python bench/workloads.py WORKLOAD --seed N --prep [--cache-dir D]

and reads the JSON object on the last line of its standard output.  The
program is driven only through public ``repro`` functions, and every
input is generated here from ``--seed``.

A repetition has three phases:

* **setup** -- import ``repro``, run the first ``code_version_salt()``
  (sweeps), synthesize the workload and carbon traces, and for the
  service ``SchedulerService.start()``.  Its duration is ``setup_s``.
* **timed** -- the work a user waits for.  Its duration is ``wall_s``;
  ``op`` and ``read`` latencies are taken inside it.
* **verify** -- result digests (and, when traced, one pickle round trip
  per result and spec), outside every timed number.

This module imports nothing from ``repro`` at import time, so the setup
phase pays the whole import.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pickle
import resource
import shutil
import sys
import time
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from spans import NullRecorder, Recorder, installed, layer_metrics, root_coverage

ROOT = Path(__file__).resolve().parent.parent

MINUTES_PER_DAY = 1440

#: Regions of the paper's large-scale evaluation (Figs. 15-16).
EVAL_REGIONS = ("SA-AU", "ON-CA", "CA-US", "NL", "KY-US")
LINEAR_POLICIES = ("nowait", "carbon-time", "lowest-window")
#: The Fig. 19 grid: spot J^max (hours) x reserved pool (share of the
#: mean demand) at a 10%/h eviction rate.
JMAX_HOURS = (0, 2, 6, 12)
RESERVED_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25)
EVICTION_RATE = 0.10

SERVICE_DAYS = 10
SERVICE_INTERARRIVAL_MIN = 0.5
#: The service client reads live accounting after every this many submits.
READ_EVERY = 1000

#: How many warm caches (one per seed and code version, ~40 MB each)
#: prep keeps, so a second pass over ten seeds reuses them.
WARM_CACHES_KEPT = 10


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB (Linux KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _checked_import() -> None:
    """Import ``repro`` and refuse a copy from outside this checkout."""
    import repro

    expected = ROOT / "src" / "repro"
    found = Path(repro.__file__).resolve().parent
    if found != expected.resolve():
        raise SystemExit(f"repro imported from {found}, expected {expected}")


# ----------------------------------------------------------------------
# Sweep inputs and grids
# ----------------------------------------------------------------------
@dataclass
class SweepInputs:
    carbon: dict
    alibaba: object = None  # WorkloadTrace
    azure: object = None  # WorkloadTrace


def linear_specs(inputs: SweepInputs) -> list:
    """5 regions x 3 policies on the Alibaba-like trace, no reserved pool.

    Every spec is contention-free, so the engine takes its linear path.
    """
    from repro.simulator.runner import SimulationSpec

    return [
        SimulationSpec.build(inputs.alibaba, inputs.carbon[region], policy)
        for region in EVAL_REGIONS
        for policy in LINEAR_POLICIES
    ]


def contended_specs(inputs: SweepInputs) -> list:
    """NoWait baseline plus the Fig. 19 grid on the Azure-like trace.

    A reserved pool plus spot placements forces the session event loop.
    """
    from repro.cluster.spot import HourlyHazard
    from repro.experiments.setup import fine_grained_queues
    from repro.simulator.runner import SimulationSpec

    workload, carbon = inputs.azure, inputs.carbon["SA-AU"]
    queues = fine_grained_queues()
    eviction = HourlyHazard(EVICTION_RATE)
    mean_demand = workload.mean_demand
    specs = [SimulationSpec.build(workload, carbon, "nowait", queues=queues)]
    for jmax in JMAX_HOURS:
        for fraction in RESERVED_FRACTIONS:
            if jmax == 0:
                policy, policy_kwargs = "res-first:carbon-time", None
            else:
                policy, policy_kwargs = "spot-res:carbon-time", {"spot_max_length": jmax * 60}
            specs.append(
                SimulationSpec.build(
                    workload,
                    carbon,
                    policy,
                    policy_kwargs=policy_kwargs,
                    reserved_cpus=int(round(mean_demand * fraction)),
                    queues=queues,
                    eviction_model=eviction,
                )
            )
    return specs


@dataclass(frozen=True)
class Grid:
    """A spec grid and, per spec, the index of its figure-row baseline."""

    build: Callable[[SweepInputs], list]
    baseline: Callable[[int], int]


LINEAR = Grid(linear_specs, lambda index: index - index % len(LINEAR_POLICIES))
CONTENDED = Grid(contended_specs, lambda index: 0)
SWEEP_GRIDS = {
    "sweep-linear": (LINEAR,),
    "sweep-contended": (CONTENDED,),
    "sweep-warm": (LINEAR, CONTENDED),
}
#: The cold grids ``sweep-warm`` replays, in order, with their spec counts.
WARM_PARTS = (
    ("sweep-linear", len(EVAL_REGIONS) * len(LINEAR_POLICIES)),
    ("sweep-contended", 1 + len(JMAX_HOURS) * len(RESERVED_FRACTIONS)),
)


def sweep_setup(grids: tuple[Grid, ...], seed: int) -> SweepInputs:
    """Import, salt, and synthesize the traces the grids need."""
    _checked_import()
    import repro.carbon.regions as regions
    import repro.simulator.runner.cache as cache
    import repro.workload.sampling as sampling
    import repro.workload.synthetic as synthetic

    cache.code_version_salt()
    inputs = SweepInputs(carbon={})
    if LINEAR in grids:
        raw = synthetic.TRACE_FAMILIES["alibaba"](num_jobs=60_000, seed=seed)
        inputs.alibaba = sampling.year_long_trace(
            raw, num_jobs=20_000, horizon=91 * MINUTES_PER_DAY, seed=seed
        )
    if CONTENDED in grids:
        raw = synthetic.TRACE_FAMILIES["azure"](num_jobs=20_000, seed=seed)
        inputs.azure = sampling.year_long_trace(
            raw, num_jobs=4_000, horizon=28 * MINUTES_PER_DAY, seed=seed
        )
    needed = EVAL_REGIONS if LINEAR in grids else ("SA-AU",)
    inputs.carbon = {region: regions.region_trace(region, seed=seed) for region in needed}
    return inputs


def figure_row(result, baseline) -> dict:
    """The totals a figure reads from one result, normalized to its baseline."""
    return {
        "carbon_kg": result.total_carbon_kg,
        "cost_usd": result.total_cost,
        "mean_wait_h": result.mean_waiting_hours,
        "norm_carbon": result.total_carbon_kg / baseline.total_carbon_kg,
        "norm_cost": result.total_cost / baseline.total_cost,
    }


def sweep_pass(grids: tuple[Grid, ...], inputs: SweepInputs, cache) -> dict:
    """Build every spec, run the sweep serially, read every figure row.

    ``ops`` are the gaps between consecutive results (one spec served);
    ``reads`` time one figure row each.
    """
    import repro.simulator.runner as runner

    groups = [grid.build(inputs) for grid in grids]
    specs = [spec for group in groups for spec in group]
    stats = runner.RunStats()
    marks = [time.perf_counter()]
    results = runner.run_many(
        specs,
        backend="serial",
        cache=cache,
        stats=stats,
        on_error="partial",
        on_result=lambda *_: marks.append(time.perf_counter()),
    )
    reads = []
    offset = 0
    for grid, group in zip(grids, groups):
        part = results[offset : offset + len(group)]
        for index, result in enumerate(part):
            baseline = part[grid.baseline(index)]
            if result is None or baseline is None:
                continue
            started = time.perf_counter()
            figure_row(result, baseline)
            reads.append(time.perf_counter() - started)
        offset += len(group)
    return {
        "specs": specs,
        "results": results,
        "stats": stats,
        "ops": [after - before for before, after in zip(marks, marks[1:])],
        "reads": reads,
    }


def sweep_repetition(workload: str, seed: int, recorder, cache_dir: str | None) -> dict:
    grids = SWEEP_GRIDS[workload]
    started = time.perf_counter()
    with recorder.span("bench.setup"):
        inputs = sweep_setup(grids, seed)
    setup_s = time.perf_counter() - started

    from repro.simulator.runner import ResultCache

    started = time.perf_counter()
    with recorder.span("bench.timed"):
        done = sweep_pass(grids, inputs, ResultCache(disk_dir=cache_dir))
    wall_s = time.perf_counter() - started
    rss_mb = peak_rss_mb()

    with recorder.span("bench.verify"):
        results, stats = done["results"], done["stats"]
        digests = [result.digest() if result is not None else "failed" for result in results]
        if isinstance(recorder, Recorder):
            pickle_round_trips(recorder, done["specs"], results)
    failed = stats.failed
    if cache_dir is not None and stats.executed:
        print(f"warm cache missed {stats.executed} specs", file=sys.stderr)
        failed += stats.executed
    jobs = sum(len(result.records) for result in results if result is not None)
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "jobs": jobs,
        "ops": done["ops"],
        "reads": done["reads"],
        "peak_rss_mb": rss_mb,
        "digests": digests,
        "attempted": len(done["specs"]),
        "failed": failed,
    }


def pickle_round_trips(recorder: Recorder, specs: list, results: list) -> None:
    """One pickle per spec (size only) and one round trip per result."""
    for spec in specs:
        index = recorder.begin("spec.pickle")
        size = len(pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL))
        recorder.end(index, {"bytes": size})
    for result in results:
        if result is None:
            continue
        index = recorder.begin("results.pickle")
        blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        recorder.end(index, {"bytes": len(blob)})
        with recorder.span("results.unpickle"):
            pickle.loads(blob)


def prep_sweep(workload: str, seed: int, cache_dir: str | None) -> dict:
    """Fill the disk cache ``sweep-warm`` serves from (the cold sweeps need
    nothing).

    The warm cache lives under ``cache_dir`` in a directory named by seed
    and code version, so a later run of the same seed on the same code
    reuses it; ``cold.json`` (the cold digests) is written last and marks
    it complete.
    """
    if workload != "sweep-warm":
        return {}
    grids = SWEEP_GRIDS[workload]
    inputs = sweep_setup(grids, seed)
    from repro.simulator.runner import ResultCache, code_version_salt

    base = Path(cache_dir)
    target = base / f"seed{seed}-{code_version_salt()[:16]}"
    marker = target / "cold.json"
    if not marker.exists():
        shutil.rmtree(target, ignore_errors=True)
        done = sweep_pass(grids, inputs, ResultCache(disk_dir=target))
        if done["stats"].failed:
            raise SystemExit(f"warm-cache prep: {done['stats'].failed} specs failed")
        digests = [result.digest() for result in done["results"]]
        marker.write_text(json.dumps({"digests": digests}))
    target.touch()
    others = sorted(
        (path for path in base.iterdir() if path.is_dir() and path != target),
        key=lambda path: path.stat().st_mtime,
        reverse=True,
    )
    for stale in others[WARM_CACHES_KEPT - 1 :]:
        shutil.rmtree(stale, ignore_errors=True)
    return {"cache_dir": str(target), "digests": json.loads(marker.read_text())["digests"]}


# ----------------------------------------------------------------------
# Service
# ----------------------------------------------------------------------
def service_inputs(seed: int):
    """The submission stream and the service configuration it runs under."""
    import repro.workload.synthetic as synthetic
    from repro.service import ServiceConfig

    stream = synthetic.poisson_exponential(
        mean_interarrival=SERVICE_INTERARRIVAL_MIN,
        horizon=SERVICE_DAYS * MINUTES_PER_DAY,
        seed=seed,
        name="service",
    )
    config = ServiceConfig(
        policy="res-first:carbon-time",
        region="SA-AU",
        reserved_cpus=int(round(stream.mean_demand)),
        horizon_days=SERVICE_DAYS,
    )
    return stream, config


async def service_repetition(seed: int, recorder) -> dict:
    """One closed-loop client: submit in arrival order, read, drain."""
    started = time.perf_counter()
    with recorder.span("bench.setup"):
        _checked_import()
        from repro.service import AdmissionError, SchedulerService

        stream, config = service_inputs(seed)
        service = SchedulerService(config)
        await service.start()
    setup_s = time.perf_counter() - started

    ops, reads = [], []
    rejected = 0
    started = time.perf_counter()
    with recorder.span("bench.timed"):
        for count, job in enumerate(stream.jobs, start=1):
            submitted = time.perf_counter()
            try:
                await service.submit(
                    length=job.length, cpus=job.cpus, arrival=job.arrival, job_id=job.job_id
                )
            except AdmissionError as error:
                rejected += 1
                print(f"job {job.job_id} rejected: {error}", file=sys.stderr)
            ops.append(time.perf_counter() - submitted)
            if count % READ_EVERY == 0:
                read_started = time.perf_counter()
                service.accounting()
                reads.append(time.perf_counter() - read_started)
        drained = await service.drain()
    wall_s = time.perf_counter() - started
    rss_mb = peak_rss_mb()
    await service.stop()

    with recorder.span("bench.verify"):
        if isinstance(recorder, Recorder):
            pickle_round_trips(recorder, [], [service.result])
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "jobs": len(stream) - rejected,
        "ops": ops,
        "reads": reads,
        "peak_rss_mb": rss_mb,
        "digests": [drained["digest"]],
        "attempted": len(ops) + len(reads) + 1,
        "failed": rejected,
    }


def prep_service(seed: int) -> dict:
    """The batch reference the service's drain digest must equal."""
    _checked_import()
    stream, config = service_inputs(seed)
    return {"digests": [config.engine(stream).run().digest()]}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
WORKLOADS = ("sweep-linear", "sweep-contended", "sweep-warm", "service-mixed")


def run_repetition(workload: str, seed: int, cache_dir: str | None, recorder) -> dict:
    if workload == "service-mixed":
        return asyncio.run(service_repetition(seed, recorder))
    return sweep_repetition(workload, seed, recorder, cache_dir)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--prep", action="store_true", help="untimed preparation")
    parser.add_argument("--trace-file", default=None, help="trace this repetition")
    parser.add_argument("--repetition", type=int, default=0)
    args = parser.parse_args(argv)

    if args.prep:
        if args.workload == "service-mixed":
            payload = prep_service(args.seed)
        else:
            payload = prep_sweep(args.workload, args.seed, args.cache_dir)
        print(json.dumps(payload))
        return 0

    recorder = Recorder() if args.trace_file else NullRecorder()
    origin = time.perf_counter()
    with installed(recorder) if args.trace_file else nullcontext():
        record = run_repetition(args.workload, args.seed, args.cache_dir, recorder)
    record["numpy"] = sys.modules["numpy"].__version__
    if args.trace_file:
        record["layers"] = layer_metrics(recorder.spans)
        record["layer_frac"] = root_coverage(recorder.spans, "bench.timed")
        trace = {
            "workload": args.workload,
            "seed": args.seed,
            "repetition": args.repetition,
            "clock": "seconds since the repetition started (time.perf_counter)",
            "fields": ["id", "name", "start", "end", "parent", "counts", "error"],
            "spans": recorder.to_json(origin),
        }
        path = Path(args.trace_file)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(trace))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    status = main()
    # Skip interpreter teardown: freeing hundreds of MB of results object
    # by object would add seconds per repetition that measure nothing.
    sys.stdout.flush()
    os._exit(status)

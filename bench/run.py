#!/usr/bin/env python3
"""Repository benchmark: four workloads, end-to-end metrics, traced layers.

Run from the repository root::

    python bench/run.py                                   # every workload, 5 repetitions
    python bench/run.py --workload sweep-linear --seed 2 --seconds 22
    python bench/run.py --workload service-mixed --trace  # plus one traced repetition
    python bench/run.py --output a.json && python bench/run.py --output b.json
    python bench/run.py --compare a.json b.json

Each repetition runs ``bench/workloads.py`` in a fresh interpreter, one
at a time, on the serial sweep backend (the service runs on one asyncio
thread), so the load is a single process.  Metric names, units, bounds
and workloads are read from ``BENCHMARK.json``; outputs are checked
against the digests pinned in ``bench/pins.json``.  With ``--trace`` one
more repetition runs with every layer wrapped; its spans go to
``bench/out/trace-<workload>-seed<N>.json`` and its per-layer metrics are
printed -- end-to-end numbers never come from it.

For every end-to-end metric the table shows the run's value (see
:func:`metric_values`) and the median, quartiles, min, max and count of
the per-repetition values.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end values, or with ``--trace`` the per-layer ones) when one
workload runs.  The exit status is 0 only when every output is correct.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WARM_PARTS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
PINS_FILE = BENCH_DIR / "pins.json"

#: A repetition that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170.0
#: No repetition starts that would end past this point of a workload's
#: run, whatever ``--repeats`` asks for.
RUN_CAP_S = 140.0


class BenchError(Exception):
    """A repetition crashed or the checkout cannot be benchmarked."""


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def load_pins() -> dict:
    with open(PINS_FILE) as handle:
        return json.load(handle)


def child_env() -> dict[str, str]:
    """The environment of every child: no ``REPRO_*`` knobs, this checkout's
    sources first on the path, a fixed hash seed."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, *extra: str) -> dict:
    """Run one ``workloads.py`` process and parse its last output line."""
    script = str(BENCH_DIR / "workloads.py")
    command = [sys.executable, script, workload, "--seed", str(seed), *extra]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        message = f"{workload} seed {seed}: no result after {CHILD_TIMEOUT_S:.0f}s"
        raise BenchError(message) from error
    if done.stderr:
        sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload} seed {seed}: child exited with status {done.returncode}")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def metric_values(records: list[dict]) -> dict[str, float]:
    """End-to-end values of a run from its repetitions' raw samples.

    Every repetition performs the same deterministic operations in the
    same order -- the i-th op is the i-th spec served or job submitted,
    the i-th read the i-th figure row or accounting read -- and
    contention from other tenants of a shared machine only ever adds
    time.  So each operation index keeps its fastest time over the
    repetitions, and the latencies and ``wall_s`` are built from those
    minima: ``wall_s`` is the sum of the fastest op and read times plus
    the fastest remainder of the timed region.  Applied to a single
    repetition these are that repetition's own values.
    """
    ops = [min(times) for times in zip(*(record["ops"] for record in records))] or [0.0]
    reads = [min(times) for times in zip(*(record["reads"] for record in records))] or [0.0]
    rest = min(record["wall_s"] - sum(record["ops"]) - sum(record["reads"]) for record in records)
    wall = sum(ops) + sum(reads) + rest
    return {
        "setup_s": min(record["setup_s"] for record in records),
        "wall_s": wall,
        "jobs_per_s": records[0]["jobs"] / wall,
        "peak_rss_mb": statistics.median(record["peak_rss_mb"] for record in records),
        "op_p50_ms": percentile(ops, 50) * 1e3,
        "op_p99_ms": percentile(ops, 99) * 1e3,
        "read_p50_ms": percentile(reads, 50) * 1e3,
    }


def describe(value: float, samples: list[float]) -> dict:
    """A run's value with the median, quartiles (``statistics.quantiles``),
    min, max and count of its per-repetition samples."""
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {
        "value": value,
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "samples": samples,
    }


def spread(stats: dict) -> float:
    """Quartile spread of the per-repetition samples as a share of their median."""
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else float("inf")


def verdict(base: dict, new: dict, better: str, bound: float) -> tuple[float, str]:
    """Ratio new/base of the run values and ``ok`` / ``worse`` / ``unresolved``.

    ``worse`` when the new value is worse by more than the bound;
    ``unresolved`` when either side's quartile spread is wider than the
    bound, unless every new sample beats every base sample.
    """
    ratio = new["value"] / base["value"]
    lower = better == "lower"
    if max(spread(base), spread(new)) > bound:
        if lower and max(new["samples"]) < min(base["samples"]):
            return ratio, "ok"
        if not lower and min(new["samples"]) > max(base["samples"]):
            return ratio, "ok"
        return ratio, "unresolved"
    worse = ratio > 1 + bound if lower else ratio < 1 - bound
    return ratio, "worse" if worse else "ok"


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def combined_digest(digests: list[str]) -> str:
    """sha256 over an ordered list of result digests; one digest (the
    service's drained result) stands for itself."""
    if len(digests) == 1:
        return digests[0]
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def digest_facts(workload: str, digests: list[str]) -> dict[str, str]:
    """The combined digest of a repetition's results and, for
    ``sweep-warm``, of each cold grid it replays."""
    facts = {workload: combined_digest(digests)}
    if workload == "sweep-warm":
        offset = 0
        for part, size in WARM_PARTS:
            facts[part] = combined_digest(digests[offset : offset + size])
            offset += size
    return facts


def expected_digests(workload: str, seed: int, pins: dict, prep: dict) -> dict[str, str]:
    """What a repetition's digest facts must equal: the warm cache's cold
    results, the service's batch reference, and the pins of this seed."""
    expected = {}
    if workload == "sweep-warm":
        expected = digest_facts(workload, prep["digests"])
    if workload == "service-mixed":
        expected["reference"] = prep["digests"][0]
    pinned = pins.get(str(seed), {})
    expected.update({name: pinned[name] for name in (workload, *expected) if name in pinned})
    return expected


def mismatches(
    workload: str, digests: list[str], expected: dict[str, str], first: str
) -> list[str]:
    """Names of every expectation a repetition's digests break."""
    facts = digest_facts(workload, digests)
    facts["reference"] = facts["first repetition"] = facts[workload]
    wanted = dict(expected, **{"first repetition": first})
    return [name for name, value in wanted.items() if facts[name] != value]


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def load_average(nproc: int, when: str, workload: str) -> list[float]:
    load = list(os.getloadavg())
    if load[0] > nproc:
        print(
            f"warning: 1-minute load average {load[0]:.2f} {when} {workload} exceeds "
            f"nproc={nproc}; timings are inflated",
            file=sys.stderr,
        )
    return load


def run_workload(workload: str, args, bench: dict, pins: dict) -> dict:
    """Prep, repeat, optionally trace, and check one workload."""
    nproc = os.cpu_count() or 1
    report: dict = {"seed": args.seed, "loadavg_before": load_average(nproc, "before", workload)}
    prep = run_child(workload, args.seed, "--prep", "--cache-dir", str(OUT_DIR / "warm-cache"))
    cache_args = ("--cache-dir", prep["cache_dir"]) if "cache_dir" in prep else ()

    if args.repeats is not None:
        minimum = args.repeats
    elif args.seconds is None:
        minimum = 5
    else:
        # A traced run reports layers, not end-to-end numbers: one
        # untraced repetition gives the overhead baseline.
        minimum = 1 if args.trace else 3
    started = time.monotonic()
    records, durations = [], []
    while len(records) < minimum or args.seconds is not None:
        elapsed = time.monotonic() - started
        if records:
            # The traced repetition also has to fit in the budget.
            expected_end = elapsed + statistics.median(durations) * (2 if args.trace else 1)
            past_budget = args.seconds is not None and expected_end > args.seconds
            if expected_end > RUN_CAP_S or (len(records) >= minimum and past_budget):
                break
        begun = time.monotonic()
        repetition = ("--repetition", str(len(records)))
        records.append(run_child(workload, args.seed, *repetition, *cache_args))
        durations.append(time.monotonic() - begun)

    traced = None
    if args.trace:
        trace_file = OUT_DIR / f"trace-{workload}-seed{args.seed}.json"
        traced = run_child(
            workload,
            args.seed,
            "--repetition",
            str(len(records)),
            "--trace-file",
            str(trace_file),
            *cache_args,
        )
        report["trace_file"] = str(trace_file.relative_to(ROOT))
    report["loadavg_after"] = load_average(nproc, "after", workload)

    expected = expected_digests(workload, args.seed, pins, prep)
    first = combined_digest(records[0]["digests"])
    checked = records + ([traced] if traced else [])
    failed = 0
    problems = []
    for index, record in enumerate(checked):
        broken = mismatches(workload, record["digests"], expected, first)
        if broken:
            label = "traced repetition" if record is traced else f"repetition {index}"
            problems.append(f"{label}: digest differs from {', '.join(broken)}")
        failed += record["failed"] + int(bool(broken))

    values = metric_values(records)
    samples = [metric_values([record]) for record in records]
    report.update(
        numpy=records[0]["numpy"],
        digest=first,
        pinned=workload in pins.get(str(args.seed), {}),
        repetitions=len(records),
        ops_per_repetition=len(records[0]["ops"]),
        reads_per_repetition=len(records[0]["reads"]),
        attempted=sum(record["attempted"] for record in checked),
        failed=failed,
        correct=failed == 0,
        problems=problems,
        metrics={
            metric["name"]: dict(
                describe(values[metric["name"]], [sample[metric["name"]] for sample in samples]),
                unit=metric["unit"],
                better=metric["better"],
            )
            for metric in bench["end_to_end"]
        },
    )
    if traced:
        layers = dict(traced["layers"])
        untraced_wall = report["metrics"]["wall_s"]["median"]
        layers["trace.overhead_frac"] = traced["wall_s"] / untraced_wall - 1.0
        layers["trace.layer_frac"] = traced["layer_frac"]
        report["layers"] = {
            metric["name"]: {"value": layers[metric["name"]], "unit": metric["unit"]}
            for metric in bench["per_layer"]
        }
    return report


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def print_workload(workload: str, report: dict) -> None:
    print(
        f"\n{workload}  seed {report['seed']}  repetitions {report['repetitions']}  "
        f"ops/repetition {report['ops_per_repetition']}  reads/repetition "
        f"{report['reads_per_repetition']}  load {report['loadavg_before'][0]:.2f}"
        f"->{report['loadavg_after'][0]:.2f}"
    )
    columns = ("value", "median", "q1", "q3", "min", "max")
    print(f"  {'metric':<14}{'unit':<7}" + "".join(f"{key:>12}" for key in columns) + f"{'n':>4}")
    for name, stats in report["metrics"].items():
        print(
            f"  {name:<14}{stats['unit']:<7}"
            + "".join(f"{stats[key]:>12.4f}" for key in columns)
            + f"{stats['n']:>4}"
        )
    for name, layer in report.get("layers", {}).items():
        print(f"  layer {name:<28}{layer['unit']:<7}{layer['value']:>16.6f}")
    status = "pinned" if report["pinned"] else "unpinned"
    print(
        f"  digest {report['digest'][:16]} ({status})  attempted {report['attempted']}  "
        f"failed {report['failed']}  correct {report['correct']}"
    )
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")


def result_line(report: dict, traced: bool) -> dict:
    """The one-line result for a single-workload run."""
    if traced:
        metrics = report["layers"]
    else:
        metrics = {
            name: {"value": stats["value"], "unit": stats["unit"]}
            for name, stats in report["metrics"].items()
        }
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def compare(base_path: str, new_path: str, bench: dict) -> int:
    """Print one row per workload x end-to-end metric; 1 if any is worse."""
    with open(base_path) as handle:
        base = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    print(f"{'workload':<17}{'metric':<14}{'base':>12}{'new':>12}{'ratio':>8}  verdict")
    any_worse = False
    for workload, base_report in base["workloads"].items():
        new_report = new["workloads"].get(workload)
        if new_report is None:
            print(f"{workload:<17}missing from {new_path}")
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            base_stats, new_stats = base_report["metrics"][name], new_report["metrics"][name]
            ratio, outcome = verdict(base_stats, new_stats, metric["better"], metric["bound"])
            any_worse = any_worse or outcome == "worse"
            print(
                f"{workload:<17}{name:<14}{base_stats['value']:>12.4f}"
                f"{new_stats['value']:>12.4f}{ratio:>8.3f}  {outcome}"
            )
    return 1 if any_worse else 0


def main(argv: list[str] | None = None) -> int:
    bench = load_benchmark()
    names = [workload["name"] for workload in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--workload", action="extend", nargs="+", choices=names, help="default: all"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="minimum repetitions (default 5; 3 with --seconds)",
    )
    parser.add_argument("--seconds", type=float, default=None, help="keep repeating for this long")
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="add a traced repetition",
    )
    parser.add_argument("--output", default=str(OUT_DIR / "report.json"))
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, bench)
    if args.seed < 0 or (args.repeats is not None and args.repeats < 1):
        parser.error("--seed must be >= 0 and --repeats >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    pins = load_pins()
    OUT_DIR.mkdir(exist_ok=True)
    # Bytecode first, so no repetition's setup_s pays for compilation.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    workloads = args.workload or names
    output = {"meta": dict(machine(), argv=sys.argv[1:], started=time.time()), "workloads": {}}
    try:
        for workload in workloads:
            report = run_workload(workload, args, bench, pins)
            output["meta"]["numpy"] = report.pop("numpy")
            output["workloads"][workload] = report
            print_workload(workload, report)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    with open(args.output, "w") as handle:
        json.dump(output, handle, indent=1)
        handle.write("\n")
    print(f"\nwrote {args.output}")
    correct = all(report["correct"] for report in output["workloads"].values())
    if len(workloads) == 1:
        print(json.dumps(result_line(output["workloads"][workloads[0]], bool(args.trace))))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

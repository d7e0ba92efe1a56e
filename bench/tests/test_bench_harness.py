"""The harness: BENCHMARK.json, metric names, digest checks, --compare."""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys

import pytest
import run
import spans
import workloads

BENCH = run.load_benchmark()
END_TO_END = [metric["name"] for metric in BENCH["end_to_end"]]
PER_LAYER = [metric["name"] for metric in BENCH["per_layer"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_has_the_required_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCH["command"] == ["python3", "bench/run.py"]
    assert BENCH["paths"] == ["bench"]
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    names = [item["name"] for item in BENCH["workloads"] + BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(metric for metric in BENCH["end_to_end"] if metric["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(metric["bound"] for metric in BENCH["end_to_end"])


def test_every_metric_name_matches_benchmark_json():
    assert workloads.WORKLOADS == tuple(item["name"] for item in BENCH["workloads"])
    record = dict(setup_s=1.0, wall_s=2.0, jobs=10, ops=[0.1, 0.3], reads=[0.01], peak_rss_mb=9.0)
    assert list(run.metric_values([record])) == END_TO_END
    assert list(spans.LAYER_METRICS) + ["trace.overhead_frac", "trace.layer_frac"] == PER_LAYER
    units = {metric["name"]: metric["unit"] for metric in BENCH["per_layer"]}
    assert all(units[name] == unit for name, (unit, _) in spans.LAYER_METRICS.items())


def test_run_values_keep_the_fastest_time_of_each_operation():
    common = {"jobs": 100}
    first = dict(common, setup_s=1.0, wall_s=10.0, ops=[1.0, 4.0], reads=[2.0], peak_rss_mb=5.0)
    second = dict(common, setup_s=0.5, wall_s=9.0, ops=[3.0, 2.0], reads=[1.5], peak_rss_mb=7.0)
    values = run.metric_values([first, second])
    # ops (1, 2) + reads (1.5) + fastest remainder min(3, 2.5)
    assert values["wall_s"] == 1.0 + 2.0 + 1.5 + 2.5
    assert values["jobs_per_s"] == 100 / 7.0
    assert (values["setup_s"], values["peak_rss_mb"]) == (0.5, 6.0)
    assert values["op_p50_ms"] == 1500.0 and values["read_p50_ms"] == 1500.0
    assert run.metric_values([first])["wall_s"] == 10.0


GOOD = [f"{index:064x}" for index in range(15)]


def fake_child(digests_by_repetition):
    """A ``run_child`` stand-in returning synthetic repetition records."""

    def child(workload, seed, *extra):
        if "--prep" in extra:
            return {}
        repetition = int(extra[extra.index("--repetition") + 1])
        record = {
            "setup_s": 1.0 + repetition,
            "wall_s": 3.0 + repetition,
            "jobs": 300,
            "ops": [0.1] * 15,
            "reads": [0.01] * 15,
            "peak_rss_mb": 50.0,
            "digests": digests_by_repetition.get(repetition, GOOD),
            "attempted": 15,
            "failed": 0,
            "numpy": "test",
        }
        if "--trace-file" in extra:
            record["layers"] = {name: 0.5 for name in spans.LAYER_METRICS}
            record["layer_frac"] = 0.99
        return record

    return child


def options(**overrides) -> argparse.Namespace:
    values = dict(seed=7, repeats=3, seconds=None, trace=0)
    values.update(overrides)
    return argparse.Namespace(**values)


def test_agreeing_repetitions_are_correct(monkeypatch):
    monkeypatch.setattr(run, "run_child", fake_child({}))
    report = run.run_workload("sweep-linear", options(trace=1), BENCH, pins={})
    assert report["correct"] and report["failed"] == 0
    assert report["attempted"] == 4 * 15
    assert report["metrics"]["wall_s"]["samples"] == [3.0, 4.0, 5.0]
    assert report["metrics"]["wall_s"]["value"] == pytest.approx(3.0)
    assert report["layers"]["trace.overhead_frac"]["value"] == 6.0 / 4.0 - 1.0
    assert list(run.result_line(report, traced=False)["metrics"]) == END_TO_END
    assert list(run.result_line(report, traced=True)["metrics"]) == PER_LAYER


@pytest.mark.parametrize("repetition", [1, 3])
def test_a_perturbed_digest_is_a_failure(monkeypatch, repetition):
    perturbed = GOOD[:-1] + ["f" * 64]
    monkeypatch.setattr(run, "run_child", fake_child({repetition: perturbed}))
    report = run.run_workload("sweep-linear", options(trace=1), BENCH, pins={})
    assert not report["correct"]
    assert report["failed"] == 1
    label = "traced repetition" if repetition == 3 else f"repetition {repetition}"
    assert report["problems"] == [f"{label}: digest differs from first repetition"]


def test_pinned_digests_are_enforced(monkeypatch):
    monkeypatch.setattr(run, "run_child", fake_child({}))
    pins = {"7": {"sweep-linear": run.combined_digest(GOOD)}}
    assert run.run_workload("sweep-linear", options(), BENCH, pins)["correct"]
    pins = {"7": {"sweep-linear": run.combined_digest(GOOD[::-1])}}
    report = run.run_workload("sweep-linear", options(), BENCH, pins)
    assert report["failed"] == 3
    assert all(problem.endswith("differs from sweep-linear") for problem in report["problems"])


def test_warm_cache_must_reproduce_the_cold_digests():
    linear, contended = GOOD, [f"{index:064x}" for index in range(100, 125)]
    prep = {"digests": linear + contended}
    expected = run.expected_digests("sweep-warm", 7, {}, prep)
    first = run.combined_digest(linear + contended)
    assert run.mismatches("sweep-warm", linear + contended, expected, first) == []
    swapped = linear + contended[1:] + contended[:1]
    assert run.mismatches("sweep-warm", swapped, expected, first) == [
        "sweep-warm",
        "sweep-contended",
        "first repetition",
    ]
    pins = {"7": {"sweep-linear": run.combined_digest(linear[::-1])}}
    expected = run.expected_digests("sweep-warm", 7, pins, prep)
    assert run.mismatches("sweep-warm", linear + contended, expected, first) == ["sweep-linear"]


def test_the_service_must_match_its_batch_reference_and_pin():
    prep = {"digests": ["a" * 64]}
    pins = {"7": {"service-mixed": "b" * 64}}
    expected = run.expected_digests("service-mixed", 7, pins, prep)
    assert expected == {"reference": "a" * 64, "service-mixed": "b" * 64}
    assert run.mismatches("service-mixed", ["a" * 64], expected, "a" * 64) == ["service-mixed"]
    broken = run.mismatches("service-mixed", ["b" * 64], expected, "a" * 64)
    assert broken == ["reference", "first repetition"]


def test_a_failing_run_prints_correct_false_and_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "run_child", fake_child({0: GOOD[::-1]}))
    monkeypatch.setattr(run.compileall, "compile_dir", lambda *args, **kwargs: True)
    output = str(tmp_path / "r.json")
    status = run.main(
        ["--workload", "sweep-linear", "--seed", "7", "--repeats", "2", "--output", output]
    )
    assert status == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert (last["correct"], last["failed"]) == (False, 1)
    assert list(last["metrics"]) == END_TO_END


def described(*samples):
    return run.describe(samples[0], list(samples))


@pytest.mark.parametrize(
    ("base", "new", "better", "expected"),
    [
        (described(1.0, 1.01, 0.99, 1.0), described(1.04, 1.05, 1.03, 1.04), "lower", "ok"),
        (described(1.0, 1.01, 0.99, 1.0), described(1.3, 1.31, 1.29, 1.3), "lower", "worse"),
        (described(100, 101, 99, 100), described(80, 81, 79, 80), "higher", "worse"),
        (described(100, 101, 99, 100), described(120, 121, 119, 120), "higher", "ok"),
        (described(1.0, 1.6, 0.7, 1.2), described(1.0, 1.01, 0.99, 1.0), "lower", "unresolved"),
        (described(2.0, 3.0, 2.2, 2.6), described(1.0, 1.01, 0.99, 1.0), "lower", "ok"),
    ],
)
def test_verdicts(base, new, better, expected):
    assert run.verdict(base, new, better, 0.1)[1] == expected


def test_compare_prints_one_row_per_workload_and_metric(tmp_path, capsys):
    def report(scale):
        metrics = {}
        for metric in BENCH["end_to_end"]:
            factor = scale if metric["name"] == "wall_s" else 1.0
            samples = (factor * value for value in (1.0, 1.01, 0.99, 1.0))
            metrics[metric["name"]] = described(*samples)
        return {"workloads": {"sweep-linear": {"metrics": metrics}}}

    (tmp_path / "a.json").write_text(json.dumps(report(1.0)))
    (tmp_path / "b.json").write_text(json.dumps(report(2.0)))
    assert run.main(["--compare", str(tmp_path / "a.json"), str(tmp_path / "a.json")]) == 0
    assert run.main(["--compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines if line.startswith("sweep-linear")]
    assert len(rows) == 2 * len(END_TO_END)
    verdicts = {row[1]: row[-1] for row in rows[len(END_TO_END) :]}
    assert verdicts.pop("wall_s") == "worse"
    assert set(verdicts.values()) == {"ok"}


def test_without_the_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=ignore)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-linear", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout

"""ResultCache disk layer: round-trips, and corruption degrades to misses.

A shared cache directory can hold entries truncated by a killed writer,
zeroed by a bad disk, or pickled by an incompatible code version.  All
of them must read as cache *misses* — never exceptions, never wrong
results.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.carbon.trace import CarbonIntensityTrace
from repro.simulator.results import SimulationResult
from repro.simulator.runner.cache import ResultCache
from repro.simulator.simulation import run_simulation
from repro.workload.job import Job
from repro.workload.trace import WorkloadTrace


@pytest.fixture(scope="module")
def shared_result():
    """One result reused across hypothesis examples (module-scoped)."""
    workload = WorkloadTrace(
        [
            Job(job_id=0, arrival=0, length=60, cpus=2),
            Job(job_id=1, arrival=45, length=120, cpus=1),
        ],
        name="cache-test",
    )
    carbon = CarbonIntensityTrace(np.full(48, 100.0), name="flat")
    return run_simulation(workload, carbon, "nowait")


def fresh_result(tiny_workload, flat_carbon):
    return run_simulation(tiny_workload, flat_carbon, "nowait")


def test_disk_round_trip(tmp_path, tiny_workload, flat_carbon):
    result = fresh_result(tiny_workload, flat_carbon)
    writer = ResultCache(disk_dir=tmp_path)
    writer.put("key", result)
    reader = ResultCache(disk_dir=tmp_path)  # cold memory layer
    assert reader.get("key") == result
    assert reader.disk_hits == 1


class TestCorruptionIsAMiss:
    def _seeded_cache(self, tmp_path, result):
        cache = ResultCache(disk_dir=tmp_path)
        cache.put("key", result)
        return tmp_path / "key.pkl"

    @given(cut=st.integers(min_value=0, max_value=200))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_truncated_entry(self, tmp_path_factory, shared_result, cut):
        tmp_path = tmp_path_factory.mktemp("trunc")
        path = self._seeded_cache(tmp_path, shared_result)
        payload = path.read_bytes()
        path.write_bytes(payload[: min(cut, len(payload) - 1)])
        reader = ResultCache(disk_dir=tmp_path)
        assert reader.get("key") is None
        assert reader.misses == 1

    @given(garbage=st.binary(min_size=0, max_size=64))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_garbage_entry(self, tmp_path_factory, shared_result, garbage):
        tmp_path = tmp_path_factory.mktemp("garbage")
        path = self._seeded_cache(tmp_path, shared_result)
        path.write_bytes(garbage)
        reader = ResultCache(disk_dir=tmp_path)
        assert reader.get("key") is None

    def test_wrong_object_type(self, tmp_path, shared_result):
        path = self._seeded_cache(tmp_path, shared_result)
        path.write_bytes(pickle.dumps({"not": "a result"}))
        reader = ResultCache(disk_dir=tmp_path)
        assert reader.get("key") is None

    def test_unreadable_entry(self, tmp_path, shared_result):
        if os.geteuid() == 0:
            pytest.skip("root ignores file permission bits")
        path = self._seeded_cache(tmp_path, shared_result)
        path.chmod(0o000)
        try:
            reader = ResultCache(disk_dir=tmp_path)
            assert reader.get("key") is None
        finally:
            path.chmod(0o644)

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda columns: columns["carbon_g"].pop(), id="short-record-column"),
            pytest.param(
                lambda columns: columns["usage_count"].__setitem__(0, 2),
                id="counts-disagree-with-intervals",
            ),
        ],
    )
    def test_columns_that_disagree_in_length(self, tmp_path, shared_result, damage):
        state = shared_result.__getstate__()
        columns = {name: column[:] for name, column in state["_columns"].items()}
        damage(columns)
        forged = SimulationResult.__new__(SimulationResult)
        forged.__dict__.update(state, _columns=columns)
        self._seeded_cache(tmp_path, forged)
        reader = ResultCache(disk_dir=tmp_path)
        assert reader.get("key") is None
        assert reader.misses == 1

    def test_miss_then_rewrite_recovers(self, tmp_path, shared_result):
        path = self._seeded_cache(tmp_path, shared_result)
        path.write_bytes(b"\x00" * 10)
        cache = ResultCache(disk_dir=tmp_path)
        assert cache.get("key") is None
        cache.put("key", shared_result)
        cold = ResultCache(disk_dir=tmp_path)
        assert cold.get("key") == shared_result


def test_memory_layer_untouched_by_disk_corruption(tmp_path, tiny_workload, flat_carbon):
    result = fresh_result(tiny_workload, flat_carbon)
    cache = ResultCache(disk_dir=tmp_path)
    cache.put("key", result)
    (tmp_path / "key.pkl").write_bytes(b"junk")
    # The writer's own memory layer still serves the result.
    assert cache.get("key") == result
    assert cache.memory_hits == 1


def test_interleaved_writers_and_readers_never_tear(tmp_path, shared_result):
    """Concurrent put/get on one key: atomic publication means readers
    observe either a complete valid entry or a miss -- never a torn
    pickle, never an exception (two sweeps sharing one disk cache stay
    correct because of exactly this)."""
    import threading

    stop = threading.Event()
    errors: list[Exception] = []
    expected = shared_result.digest()

    def writer() -> None:
        try:
            while not stop.is_set():
                ResultCache(disk_dir=tmp_path).put("key", shared_result)
        except Exception as error:
            errors.append(error)

    def reader() -> None:
        try:
            hits = 0
            while not stop.is_set() or hits == 0:
                found = ResultCache(disk_dir=tmp_path).get("key")
                if found is not None:
                    hits += 1
                    assert found.digest() == expected
        except Exception as error:
            errors.append(error)

    threads = [threading.Thread(target=writer) for _ in range(2)]
    threads += [threading.Thread(target=reader) for _ in range(2)]
    for thread in threads:
        thread.start()
    import time as _time

    _time.sleep(0.5)
    stop.set()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert errors == []

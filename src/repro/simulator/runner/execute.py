"""Batch execution of simulation specs: backends, caching, recovery.

:func:`run_many` is the sweep primitive every experiment builds on.  It
deduplicates identical specs within a batch, consults the result cache,
and dispatches the remainder to a
:class:`~repro.simulator.runner.backends.SweepBackend` -- ``serial``
(in-process) or ``pool`` (fault-tolerant ``ProcessPoolExecutor``) --
selected by argument, ``$REPRO_BACKEND``, or the historical heuristic
(``serial`` for ``jobs=1`` with no timeout, ``pool`` otherwise).

The recovery semantics are *backend-agnostic* -- they live in the
dispatch loop here, so both backends inherit them and the conformance
suite (``tests/simulator/test_backends.py``) certifies each one against
the same contract (``docs/robustness.md`` and ``docs/sweeps.md`` have
the narrative):

* failed attempts are retried up to ``retries`` times with exponential
  backoff and digest-seeded jitter (:class:`~repro.errors.ReproError`
  subclasses fail fast -- they are deterministic domain errors a retry
  cannot fix).  Backoff gates never stall the loop: a waiting retry
  only bounds the backend poll timeout, and the loop sleeps outright
  only when nothing at all is in flight;
* a per-execution ``timeout`` cancels hung attempts through the
  backend: the expired spec is charged a ``TimeoutError``, and innocent
  in-flight specs a backend had to abandon as collateral are requeued
  uncharged;
* a worker death surfaces as a
  :class:`~repro.simulator.runner.backends.WorkerCrash`; when a backend
  cannot name the culprit it requeues the suspects as *exclusive*
  attempts and the loop re-runs them one at a time ("solo isolation")
  so only the spec that actually crashes is charged;
* specs that exhaust recovery are reported as structured
  :class:`SpecFailure` entries on :class:`RunStats` -- the batch still
  returns every completed result (``on_error="partial"``) or raises a
  :class:`~repro.errors.SweepError` carrying both (``"raise"``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.errors import ConfigError, ReproError, SweepError
from repro.obs.events import (
    BackendClosed,
    BackendOpened,
    MetricsSnapshot,
    SpecFailed,
    SpecRetried,
    SweepCompleted,
    SweepSubmitted,
)
from repro.obs.metrics import MetricsRegistry, aggregate_metrics
from repro.obs.tracer import Tracer, tracer_from_env
from repro.simulator.results import SimulationResult
from repro.simulator.runner.backends import (
    BACKENDS,
    AttemptOutcome,
    BackendContext,
    SweepBackend,
    WorkerCrash,
    execution_count,
    resolve_backend_name,
)
from repro.simulator.runner.cache import ResultCache, default_cache
from repro.simulator.runner.spec import SimulationSpec

__all__ = [
    "RunStats",
    "SpecFailure",
    "WorkerCrash",
    "run_many",
    "resolve_jobs",
    "resolve_retries",
    "resolve_timeout",
    "resolve_backend_name",
    "execution_count",
]

#: Callback fired once per distinct spec digest whose result became
#: available (cache hit at planning time, or execution completing).
OnResult = Callable[[int, SimulationSpec, SimulationResult], None]


@dataclass(frozen=True)
class SpecFailure:
    """Structured report of one spec that a batch could not complete.

    ``attempts`` counts executions actually charged to the spec (retries
    included, uncharged requeues after an innocent pool loss excluded);
    ``error_type`` is the final exception class name.
    """

    index: int
    digest: str
    error_type: str
    message: str
    attempts: int


@dataclass
class RunStats:
    """Bookkeeping of one :func:`run_many` call.

    ``total = executed + cache_hits + deduplicated``: every spec is
    either dispatched for execution, served from the cache, or aliased
    to an identical spec in the same batch.  Dispatched specs that
    exhaust recovery land in ``failures`` (one :class:`SpecFailure` per
    failed slot, aliases included) and are counted by ``failed``;
    ``retries``/``timeouts``/``pool_respawns`` count the recovery
    machinery's work (``pool_respawns`` counts worker-pool replacements
    by the ``pool`` backend; ``serial`` never respawns).  ``backend``
    names the execution substrate the batch dispatched to.  ``metrics``
    is the batch's aggregated observability snapshot (see
    :mod:`repro.obs.metrics`): the runner's own counters and
    per-execution wall-time histogram merged with the engine metrics of
    every distinct result.
    """

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    deduplicated: int = 0
    jobs: int = 1
    failed: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_respawns: int = 0
    backend: str = "serial"
    failures: list[SpecFailure] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)


def resolve_jobs(jobs: int | None = None, environ=None) -> int:
    """Worker count: the explicit argument, else ``$REPRO_JOBS``, else 1."""
    if jobs is None:
        env = os.environ if environ is None else environ
        raw = env.get("REPRO_JOBS", "")
        jobs = int(raw) if raw else 1
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    return jobs


def resolve_retries(retries: int | None = None, environ=None) -> int:
    """Retry budget: the explicit argument, else ``$REPRO_RETRIES``, else 0."""
    if retries is None:
        env = os.environ if environ is None else environ
        raw = env.get("REPRO_RETRIES", "")
        retries = int(raw) if raw else 0
    if retries < 0:
        raise ConfigError("retries must be >= 0")
    return retries


def resolve_timeout(timeout: float | None = None, environ=None) -> float | None:
    """Per-execution timeout (seconds): the argument, else ``$REPRO_TIMEOUT``."""
    if timeout is None:
        env = os.environ if environ is None else environ
        raw = env.get("REPRO_TIMEOUT", "")
        timeout = float(raw) if raw else None
    if timeout is not None and timeout <= 0:
        raise ConfigError("timeout must be positive (or None to disable)")
    return timeout


def _retry_delay(backoff: float, digest: str, attempt: int) -> float:
    """Exponential backoff with deterministic digest-seeded jitter.

    The jitter decorrelates retries across a batch without introducing
    unseeded randomness (SIM001): it is a pure function of the spec
    digest and the attempt number.
    """
    if backoff <= 0.0:
        return 0.0
    seed = hashlib.sha256(f"{digest}:{attempt}".encode()).digest()
    jitter = int.from_bytes(seed[:4], "big") / 2**32
    return backoff * (2 ** (attempt - 1)) * (1.0 + jitter)


@dataclass
class _Attempt:
    """One spec's execution state inside the dispatch loop."""

    index: int
    spec: SimulationSpec
    digest: str
    attempts: int = 0  # executions charged so far
    ready_at: float = 0.0  # monotonic time gating resubmission (backoff)
    exclusive: bool = False  # crash suspect: runs with nothing else in flight


class _Dispatcher:
    """The backend-agnostic fault-tolerant dispatch loop.

    Owns every recovery decision -- retry scheduling, timeout charging,
    exclusive (solo) isolation of crash suspects, failure reporting --
    while the :class:`SweepBackend` only executes attempts and reports
    :class:`AttemptOutcome` values.  Backoff waits never block the loop:
    a gated retry merely bounds the backend poll timeout, so unrelated
    in-flight completions keep landing while the gate is closed, and the
    loop sleeps outright only when nothing at all is in flight.
    """

    def __init__(
        self,
        to_run: list[tuple[int, SimulationSpec]],
        digests: list[str],
        backend: SweepBackend,
        retries: int,
        timeout: float | None,
        backoff: float,
        tracer: Tracer,
        on_complete: Callable[[int, SimulationResult], None] | None = None,
    ):
        self.pending = [
            _Attempt(index=index, spec=spec, digest=digests[index])
            for index, spec in to_run
        ]
        self.backend = backend
        self.retries = retries
        self.timeout = timeout
        self.backoff = backoff
        self.tracer = tracer
        self.on_complete = on_complete
        self.completed: list[tuple[int, SimulationResult, float]] = []
        self.failures: list[SpecFailure] = []
        self.retry_count = 0
        self.timeout_count = 0
        self.inflight: dict[int, tuple[_Attempt, float | None]] = {}
        self._next_token = 0

    def run(self) -> None:
        """Drain the work queue through the backend."""
        while self.pending or self.inflight:
            self._submit_ready()
            if not self.inflight:
                self._sleep_until_ready()
                continue
            for outcome in self.backend.poll(self._poll_timeout()):
                self._apply(outcome)
            self._expire_deadlines()

    # -- submission ----------------------------------------------------
    def _submittable(self, now: float) -> list[_Attempt]:
        """Attempts eligible for submission right now.

        Exclusive attempts (crash suspects) run strictly alone: one is
        submitted only when nothing is in flight, and while one is in
        flight nothing else joins it -- so a repeat crash unambiguously
        names its culprit.
        """
        if any(attempt.exclusive for attempt, _ in self.inflight.values()):
            return []
        ready_exclusive = [
            a for a in self.pending if a.exclusive and a.ready_at <= now
        ]
        if ready_exclusive:
            return ready_exclusive[:1] if not self.inflight else []
        return [a for a in self.pending if not a.exclusive and a.ready_at <= now]

    def _submit_ready(self) -> None:
        """Hand ready attempts to the backend, up to its capacity."""
        now = time.monotonic()
        eligible = self._submittable(now)
        capacity = self.backend.capacity()
        if capacity is not None:
            eligible = eligible[: max(0, capacity)]
        for attempt in eligible:
            self.pending.remove(attempt)
            token = self._next_token
            self._next_token += 1
            deadline = now + self.timeout if self.timeout is not None else None
            self.inflight[token] = (attempt, deadline)
            self.backend.submit(token, attempt.spec)

    def _sleep_until_ready(self) -> None:
        """Idle until the earliest backoff gate opens (nothing in flight)."""
        ready_at = min(attempt.ready_at for attempt in self.pending)
        delay = ready_at - time.monotonic()
        if delay > 0:
            time.sleep(delay)

    def _poll_timeout(self) -> float | None:
        """How long the backend may block before the loop must act.

        Bounded by the earliest in-flight deadline (a timeout could
        expire) *and* the earliest pending backoff gate (a retry could
        become submittable) -- the latter is what keeps backoff waits
        off the dispatch path.
        """
        bounds = [
            deadline for _, deadline in self.inflight.values() if deadline is not None
        ]
        now = time.monotonic()
        bounds.extend(
            attempt.ready_at for attempt in self.pending if attempt.ready_at > now
        )
        if not bounds:
            return None
        return max(0.0, min(bounds) - now)

    # -- completion / failure handling ---------------------------------
    def _apply(self, outcome: AttemptOutcome) -> None:
        """Fold one backend outcome into the loop state."""
        entry = self.inflight.pop(outcome.token, None)
        if entry is None:
            return  # stale token: already charged (e.g. as a timeout)
        attempt, _deadline = entry
        if outcome.requeue:
            attempt.exclusive = attempt.exclusive or outcome.exclusive
            self.pending.append(attempt)
        elif outcome.error is not None:
            self._charge(attempt, outcome.error)
        else:
            assert outcome.result is not None
            self.completed.append((attempt.index, outcome.result, outcome.wall_seconds))
            if self.on_complete is not None:
                self.on_complete(attempt.index, outcome.result)

    def _expire_deadlines(self) -> None:
        """Cancel expired attempts through the backend and charge them.

        Only attempts the backend *confirms* cancelled are charged a
        ``TimeoutError`` -- one that finished in the race window
        delivers its real outcome on the next poll instead.
        """
        if self.timeout is None or not self.inflight:
            return
        now = time.monotonic()
        expired = {
            token
            for token, (_attempt, deadline) in self.inflight.items()
            if deadline is not None and now >= deadline
        }
        if not expired:
            return
        for token in self.backend.cancel(expired):
            attempt, _deadline = self.inflight.pop(token)
            self.timeout_count += 1
            self._charge(
                attempt, TimeoutError(f"execution exceeded {self.timeout:g}s")
            )

    def _charge(self, attempt: _Attempt, error: BaseException) -> None:
        """Charge one failed execution: schedule a retry or record failure."""
        attempt.attempts += 1
        fail_fast = isinstance(error, ReproError)
        if fail_fast or attempt.attempts > self.retries:
            self.failures.append(
                SpecFailure(
                    index=attempt.index,
                    digest=attempt.digest,
                    error_type=type(error).__name__,
                    message=str(error),
                    attempts=attempt.attempts,
                )
            )
            if self.tracer.enabled:
                self.tracer.emit(
                    SpecFailed(
                        index=attempt.index,
                        digest_prefix=attempt.digest[:12],
                        error_type=type(error).__name__,
                        message=str(error),
                        attempts=attempt.attempts,
                    )
                )
            return
        self.retry_count += 1
        delay = _retry_delay(self.backoff, attempt.digest, attempt.attempts)
        attempt.ready_at = time.monotonic() + delay
        self.pending.append(attempt)
        if self.tracer.enabled:
            self.tracer.emit(
                SpecRetried(
                    index=attempt.index,
                    digest_prefix=attempt.digest[:12],
                    attempt=attempt.attempts,
                    error_type=type(error).__name__,
                    delay_seconds=delay,
                )
            )


def run_many(
    specs: Iterable[SimulationSpec],
    jobs: int | None = None,
    cache: ResultCache | None = None,
    use_cache: bool = True,
    stats: RunStats | None = None,
    tracer: Tracer | None = None,
    retries: int | None = None,
    timeout: float | None = None,
    backoff: float = 0.05,
    on_error: str = "raise",
    backend: str | None = None,
    on_result: OnResult | None = None,
) -> list[SimulationResult]:
    """Run every spec and return one result per spec, in spec order.

    Parameters
    ----------
    specs:
        The simulations to run.  Identical specs (equal digests) are
        executed once and share the result object.
    jobs:
        Worker processes; ``None`` reads ``$REPRO_JOBS`` (default 1).
        1 runs in-process unless a ``timeout`` forces a process-backed
        backend (only a separate process can be abandoned).
    cache:
        Result cache to consult and fill; ``None`` uses the process-wide
        :func:`default_cache`.  Only completed results are cached.
    use_cache:
        ``False`` (or ``$REPRO_NO_CACHE=1``) bypasses the cache
        entirely; in-batch deduplication still applies.
    stats:
        Optional :class:`RunStats` filled in place with hit/execution/
        failure counts and the batch's aggregated metrics snapshot.
        Filled even when the call raises :class:`SweepError`.
    tracer:
        Observability sink for batch-level events (sweep submitted /
        completed, backend opened / closed, retries, failures, worker
        respawns, runner metrics); ``None`` consults ``$REPRO_TRACE``
        and defaults to the no-op null tracer.  Worker processes emit
        their per-run events through their own env-resolved tracers.
    retries:
        Extra executions granted to a failing spec; ``None`` reads
        ``$REPRO_RETRIES`` (default 0).  :class:`~repro.errors.ReproError`
        subclasses fail fast regardless -- they are deterministic.
    timeout:
        Per-execution wall-clock budget in seconds; ``None`` reads
        ``$REPRO_TIMEOUT`` (default: no timeout).  Expiry cancels the
        attempt through the backend and charges the spec one attempt.
    backoff:
        Base backoff in seconds; attempt ``n`` waits
        ``backoff * 2**(n-1)`` scaled by deterministic digest-seeded
        jitter.  0 disables the wait (tests).
    on_error:
        ``"raise"`` (default): specs still failed after recovery raise
        :class:`~repro.errors.SweepError`, carrying the partial results
        and the failure report.  ``"partial"``: return the results list
        with ``None`` in failed slots; inspect ``stats.failures``.
    backend:
        Execution substrate name, ``"serial"`` or ``"pool"``; ``None``
        reads ``$REPRO_BACKEND`` and falls back to the jobs/timeout
        heuristic.  See ``docs/sweeps.md`` for the backend matrix.
    on_result:
        Streaming completion hook, called once per *distinct* spec
        digest as soon as its result is available -- for cache hits
        during planning and for executions as they land, before the
        batch finishes.  Campaign journaling builds on this.  Aliased
        (deduplicated) slots do not trigger extra calls.
    """
    spec_list = list(specs)
    jobs = resolve_jobs(jobs)
    retries = resolve_retries(retries)
    timeout = resolve_timeout(timeout)
    backend_name = resolve_backend_name(backend, jobs=jobs, timeout=timeout)
    if timeout is not None and not BACKENDS[backend_name].supports_timeout:
        raise ConfigError(
            f"backend {backend_name!r} cannot enforce per-execution timeouts"
        )
    if on_error not in ("raise", "partial"):
        raise ConfigError(f"on_error must be 'raise' or 'partial', got {on_error!r}")
    if tracer is None:
        tracer = tracer_from_env()
    if os.environ.get("REPRO_NO_CACHE", "") == "1":
        use_cache = False
    active_cache = (cache if cache is not None else default_cache()) if use_cache else None
    cache_counters_before = (
        active_cache.layer_counters() if active_cache is not None else {}
    )
    batch_started = time.perf_counter()

    results: list[SimulationResult | None] = [None] * len(spec_list)
    digests: list[str] = [spec.digest() for spec in spec_list]
    notified: set[str] = set()
    to_run: list[tuple[int, SimulationSpec]] = []
    followers: dict[str, list[int]] = {}
    hit_count = 0
    for index, spec in enumerate(spec_list):
        if active_cache is not None:
            found = active_cache.get(active_cache.key_for(spec))
            if found is not None:
                results[index] = found
                hit_count += 1
                if on_result is not None and digests[index] not in notified:
                    notified.add(digests[index])
                    on_result(index, spec, found)
                continue
        digest = digests[index]
        if digest in followers:
            followers[digest].append(index)
        else:
            followers[digest] = []
            to_run.append((index, spec))

    deduplicated = len(spec_list) - hit_count - len(to_run)
    if tracer.enabled:
        tracer.emit(
            SweepSubmitted(
                total=len(spec_list),
                executed=len(to_run),
                cache_hits=hit_count,
                deduplicated=deduplicated,
                jobs=jobs,
            )
        )

    def _stream(index: int, result: SimulationResult) -> None:
        """Forward one dispatch completion to the caller's hook."""
        if on_result is not None and digests[index] not in notified:
            notified.add(digests[index])
            on_result(index, spec_list[index], result)

    if to_run:
        active_backend = BACKENDS[backend_name]()
        workers = min(jobs, len(to_run))
        if tracer.enabled:
            tracer.emit(BackendOpened(backend=backend_name, workers=workers))
        dispatcher = _Dispatcher(
            to_run,
            digests,
            backend=active_backend,
            retries=retries,
            timeout=timeout,
            backoff=backoff,
            tracer=tracer,
            on_complete=_stream if on_result is not None else None,
        )
        active_backend.open(BackendContext(workers=workers, tracer=tracer))
        try:
            dispatcher.run()
        finally:
            active_backend.shutdown()
        computed, failures = dispatcher.completed, dispatcher.failures
        retry_count = dispatcher.retry_count
        timeout_count = dispatcher.timeout_count
        respawn_count = active_backend.respawns
        if tracer.enabled:
            tracer.emit(
                BackendClosed(
                    backend=backend_name,
                    executed=len(computed),
                    respawns=respawn_count,
                )
            )
    else:
        computed, failures = [], []
        retry_count = timeout_count = respawn_count = 0

    for index, result, _wall_seconds in computed:
        results[index] = result
        if active_cache is not None:
            active_cache.put(active_cache.key_for(spec_list[index]), result)
        for follower in followers[digests[index]]:
            results[follower] = result

    # Aliases of a failed spec fail with it: report one entry per slot.
    for failure in list(failures):
        for follower in followers.get(failure.digest, ()):
            failures.append(dataclasses.replace(failure, index=follower))
    failures.sort(key=lambda failure: failure.index)

    metrics = _batch_metrics(
        results=results,
        computed=computed,
        total=len(spec_list),
        cache_hits=hit_count,
        deduplicated=deduplicated,
        jobs=jobs,
        active_cache=active_cache,
        cache_counters_before=cache_counters_before,
        failed=len(failures),
        retries=retry_count,
        timeouts=timeout_count,
        pool_respawns=respawn_count,
    )
    if tracer.enabled:
        tracer.emit(MetricsSnapshot(scope="runner", metrics=metrics))
        tracer.emit(
            SweepCompleted(
                total=len(spec_list),
                executed=len(to_run),
                cache_hits=hit_count,
                deduplicated=deduplicated,
                jobs=jobs,
                wall_seconds=time.perf_counter() - batch_started,
            )
        )

    if stats is not None:
        stats.total = len(spec_list)
        stats.executed = len(to_run)
        stats.cache_hits = hit_count
        stats.deduplicated = deduplicated
        stats.jobs = jobs
        stats.failed = len(failures)
        stats.retries = retry_count
        stats.timeouts = timeout_count
        stats.pool_respawns = respawn_count
        stats.backend = backend_name
        stats.failures = list(failures)
        stats.metrics = metrics
    if failures and on_error == "raise":
        first = failures[0]
        raise SweepError(
            f"{len(failures)} of {len(spec_list)} specs failed after recovery; "
            f"first: spec {first.index} [{first.error_type}] {first.message}",
            results=results,
            failures=failures,
        )
    return results  # type: ignore[return-value]  # None only in 'partial' failed slots


def _batch_metrics(
    results: list[SimulationResult | None],
    computed: list[tuple[int, SimulationResult, float]],
    total: int,
    cache_hits: int,
    deduplicated: int,
    jobs: int,
    active_cache: ResultCache | None,
    cache_counters_before: dict[str, int],
    failed: int = 0,
    retries: int = 0,
    timeouts: int = 0,
    pool_respawns: int = 0,
) -> dict:
    """Aggregate one batch's observability snapshot.

    Merges the runner's own counters (spec dispositions, recovery work,
    per-execution wall-time histogram, cache-layer deltas) with the
    engine metrics of every *distinct* result object -- deduplicated and
    cache-shared results contribute once, so counters stay proportional
    to work done.  Recovery counters appear only when nonzero, keeping
    clean-batch snapshots identical to the pre-robustness layout.
    """
    registry = MetricsRegistry()
    registry.counter("runner.specs", float(total))
    registry.counter("runner.executed", float(len(computed)))
    registry.counter("runner.cache_hits", float(cache_hits))
    registry.counter("runner.deduplicated", float(deduplicated))
    registry.gauge("runner.jobs", float(jobs))
    for name, value in (
        ("runner.failed", failed),
        ("runner.retries", retries),
        ("runner.timeouts", timeouts),
        ("runner.pool_respawns", pool_respawns),
    ):
        if value:
            registry.counter(name, float(value))
    for _index, _result, wall_seconds in computed:
        registry.histogram("runner.worker_wall_seconds", wall_seconds)
    if active_cache is not None:
        for name, count in active_cache.layer_counters().items():
            delta = count - cache_counters_before.get(name, 0)
            if delta:
                registry.counter(f"cache.{name}", float(delta))
    distinct = {id(result): result for result in results if result is not None}
    return aggregate_metrics(
        [registry.snapshot()]
        + [result.metrics for result in distinct.values() if result.metrics]
    )

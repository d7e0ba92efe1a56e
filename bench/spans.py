"""Outside-in span recording for the benchmark's traced repetition.

The traced repetition wraps public callables of ``repro`` in timing
wrappers owned by the benchmark.  Every call opens a span (name, start,
end, parent) on a :class:`Recorder`; spans stay in memory and are written
to ``bench/out/trace-<workload>-seed<N>.json`` when the repetition ends.

A layer's time is the sum of its spans' *self* time: a span's duration
minus the durations of its direct children.  Self times telescope, so
the self times of every span under a root add up to the root's
duration.  A layer's counts (calls, keys, hits, ...) come only from its
outermost spans -- those with no ancestor of the same name -- so a
meta-policy that delegates to an inner policy's ``decide_many`` counts
its keys once, not twice.

Spans nest by a single stack, not by task: that is exact for the
benchmark's closed loop with one client, where the service's worker runs
``EngineSession.submit`` while the client is suspended inside
``SchedulerService.submit``.

Wrapping rules: only attributes already present in a class's own
``__dict__`` (or a module's namespace, or a registry dict's keys) are
replaced, and :func:`installed` restores the original objects on exit.
The engine's ``_batched_hook_consistent`` guard looks up which class in
the MRO *owns* ``decide`` / ``decide_many``; because no class gains an
attribute it did not define, those owners -- and hence the engine's
choice between batched and scalar decisions -- are unchanged.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "LAYER_METRICS",
    "NullRecorder",
    "Recorder",
    "Span",
    "Target",
    "installed",
    "layer_metrics",
    "root_coverage",
    "summarize",
    "targets",
]


class Span:
    """One timed call: ``parent`` is the index of the enclosing span or -1."""

    __slots__ = ("name", "start", "end", "parent", "counts", "error")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts: dict[str, float] | None = None
        self.error = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), parent))
        self._open.append(index)
        return index

    def end(
        self, index: int, counts: dict[str, float] | None = None, error: bool = False
    ) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(
                f"span {self.spans[index].name!r} closed while another span is open"
            )
        self._open.pop()
        span = self.spans[index]
        span.end = self.clock()
        span.counts = counts
        span.error = error

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def to_json(self, origin: float) -> list[list]:
        """Spans as ``[id, name, start, end, parent, counts, error]`` rows,
        times in seconds since ``origin``."""
        return [
            [
                index,
                span.name,
                span.start - origin,
                span.end - origin,
                span.parent,
                span.counts or {},
                span.error,
            ]
            for index, span in enumerate(self.spans)
        ]


class NullRecorder:
    """Stands in for a :class:`Recorder` in untraced repetitions."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield


@dataclass
class Summary:
    """Per-name aggregate: self time over all spans, counts over outermost."""

    self_s: float = 0.0
    calls: int = 0
    errors: int = 0
    counts: dict[str, float] = field(default_factory=dict)


def summarize(spans: list[Span]) -> dict[str, Summary]:
    """Aggregate spans by name (see the module docstring for the rules)."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    summaries: dict[str, Summary] = {}
    for index, span in enumerate(spans):
        summary = summaries.setdefault(span.name, Summary())
        summary.self_s += span.duration - child_time[index]
        if _has_ancestor_named(spans, span):
            continue
        summary.calls += 1
        summary.errors += int(span.error)
        for key, value in (span.counts or {}).items():
            summary.counts[key] = summary.counts.get(key, 0) + value
    return summaries


def _has_ancestor_named(spans: list[Span], span: Span) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name == span.name:
            return True
        parent = spans[parent].parent
    return False


# ----------------------------------------------------------------------
# Layer metrics
# ----------------------------------------------------------------------
def _self(name: str) -> Callable[[dict[str, Summary]], float]:
    return lambda s: s[name].self_s if name in s else 0.0


def _calls(name: str) -> Callable[[dict[str, Summary]], float]:
    return lambda s: s[name].calls if name in s else 0


def _count(name: str, key: str) -> Callable[[dict[str, Summary]], float]:
    return lambda s: s[name].counts.get(key, 0) if name in s else 0


def _errors(name: str) -> Callable[[dict[str, Summary]], float]:
    return lambda s: s[name].errors if name in s else 0


def _keys_per_job(s: dict[str, Summary]) -> float:
    jobs = _count("engine.run", "jobs")(s)
    return _count("policies.decide_many", "keys")(s) / jobs if jobs else 0.0


#: Per-layer metric name -> (unit, value from the span summaries).  The
#: ``trace.*`` metrics are computed by the caller (they need the
#: untraced runs), so they are listed in ``BENCHMARK.json`` but not here.
LAYER_METRICS: dict[str, tuple[str, Callable[[dict[str, Summary]], float]]] = {
    "workload.synth_s": ("s", _self("workload.synth")),
    "carbon.trace_s": ("s", _self("carbon.trace")),
    "cache.salt_s": ("s", _self("cache.salt")),
    "cache.key_s": ("s", _self("cache.key")),
    "cache.get_s": ("s", _self("cache.get")),
    "cache.put_s": ("s", _self("cache.put")),
    "cache.hits": ("count", _count("cache.get", "hits")),
    "cache.misses": ("count", _count("cache.get", "misses")),
    "spec.build_s": ("s", _self("spec.build")),
    "spec.digest_s": ("s", _self("spec.digest")),
    "spec.thaw_s": ("s", _self("spec.thaw")),
    "spec.pickle_bytes": ("bytes", _count("spec.pickle", "bytes")),
    "runner.self_s": ("s", _self("runner.run_many")),
    "runner.executed": ("count", _count("runner.run_many", "executed")),
    "runner.failed": ("count", _count("runner.run_many", "failed")),
    "simulator.build_engine_s": ("s", _self("simulator.build_engine")),
    "policies.decide_many_s": ("s", _self("policies.decide_many")),
    "policies.decide_many_keys": ("count", _count("policies.decide_many", "keys")),
    "policies.decide_s": ("s", _self("policies.decide")),
    "policies.decide_calls": ("count", _calls("policies.decide")),
    "policies.keys_per_job": ("ratio", _keys_per_job),
    "engine.run_self_s": ("s", _self("engine.run")),
    "engine.jobs": ("count", _count("engine.run", "jobs")),
    "session.replay_s": ("s", _self("session.replay")),
    "session.submit_s": ("s", _self("session.submit")),
    "session.submit_calls": ("count", _calls("session.submit")),
    "session.drain_s": ("s", _self("session.drain")),
    "results.rows_s": ("s", _self("results.rows")),
    "results.pickle_s": ("s", _self("results.pickle")),
    "results.unpickle_s": ("s", _self("results.unpickle")),
    "results.pickle_bytes": ("bytes", _count("results.pickle", "bytes")),
    "results.digest_s": ("s", _self("results.digest")),
    "service.start_s": ("s", _self("service.start")),
    "service.submit_self_s": ("s", _self("service.submit")),
    "service.accounting_s": ("s", _self("service.accounting")),
    "service.accounting_calls": ("count", _calls("service.accounting")),
    "service.rows_scanned": ("count", _count("service.accounting", "rows")),
    "service.drain_s": ("s", _self("service.drain")),
    "service.rejected": ("count", _errors("service.submit")),
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value for one traced repetition."""
    summaries = summarize(spans)
    return {name: float(value(summaries)) for name, (_unit, value) in LAYER_METRICS.items()}


def root_coverage(spans: list[Span], root: str) -> float:
    """Share of the ``root`` span's time covered by wrapped layers below it."""
    summaries = summarize(spans)
    total = sum(span.duration for span in spans if span.name == root)
    return 1.0 - summaries[root].self_s / total if total > 0 else 0.0


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner`` is a module, a class or a dict."""

    owner: object
    key: str
    span: str
    counts: Callable[[tuple, dict, object], dict[str, float]] | None = None


def _hit_or_miss(args, kwargs, result) -> dict[str, float]:
    return {"misses": 1} if result is None else {"hits": 1}


def _run_stats(args, kwargs, result) -> dict[str, float]:
    stats = kwargs.get("stats")
    return {"executed": stats.executed, "failed": stats.failed} if stats else {}


def _decision_keys(args, kwargs, result) -> dict[str, float]:
    jobs = args[1] if len(args) > 1 else kwargs["jobs"]
    return {"keys": len(jobs)}


def _engine_jobs(args, kwargs, result) -> dict[str, float]:
    return {"jobs": len(result.records)}


def _rows_scanned(args, kwargs, result) -> dict[str, float]:
    return {"rows": result["totals"]["jobs"]}


def _subclasses(cls: type) -> list[type]:
    found: list[type] = []
    pending = [cls]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return [cls, *found]


def targets() -> list[Target]:
    """Every callable the traced repetition wraps, with its span name.

    Functions imported under several names are wrapped at each name the
    program (or the benchmark) calls them through.
    """
    import repro.carbon.regions as regions
    import repro.service.config as service_config
    import repro.simulator.runner as runner
    import repro.simulator.runner.cache as cache
    import repro.simulator.simulation as simulation
    import repro.workload.sampling as sampling
    import repro.workload.synthetic as synthetic
    from repro.policies import Policy
    from repro.service import SchedulerService
    from repro.simulator.engine import Engine
    from repro.simulator.results import SimulationResult
    from repro.simulator.runner import ResultCache, SimulationSpec
    from repro.simulator.session import EngineSession

    families = synthetic.TRACE_FAMILIES
    found = [Target(families, family, "workload.synth") for family in families]
    found += [
        Target(synthetic, "poisson_exponential", "workload.synth"),
        Target(sampling, "year_long_trace", "workload.synth"),
        Target(regions, "region_trace", "carbon.trace"),
        Target(service_config, "region_trace", "carbon.trace"),
        Target(cache, "code_version_salt", "cache.salt"),
        Target(ResultCache, "key_for", "cache.key"),
        Target(ResultCache, "get", "cache.get", _hit_or_miss),
        Target(ResultCache, "put", "cache.put"),
        Target(SimulationSpec, "build", "spec.build"),
        Target(SimulationSpec, "digest", "spec.digest"),
        Target(SimulationSpec, "to_kwargs", "spec.thaw"),
        Target(runner, "run_many", "runner.run_many", _run_stats),
        Target(simulation, "build_engine", "simulator.build_engine"),
        Target(service_config, "build_engine", "simulator.build_engine"),
        Target(Engine, "run", "engine.run", _engine_jobs),
        Target(EngineSession, "replay", "session.replay"),
        Target(EngineSession, "submit", "session.submit"),
        Target(EngineSession, "drain", "session.drain"),
        Target(SimulationResult, "digest", "results.digest"),
        Target(SchedulerService, "start", "service.start"),
        Target(SchedulerService, "submit", "service.submit"),
        Target(SchedulerService, "accounting", "service.accounting", _rows_scanned),
        Target(SchedulerService, "drain", "service.drain"),
    ]
    for cls in _subclasses(Policy):
        for method, span, counts in (
            ("decide", "policies.decide", None),
            ("decide_many", "policies.decide_many", _decision_keys),
        ):
            defined = cls.__dict__.get(method)
            if defined is not None and not getattr(defined, "__isabstractmethod__", False):
                found.append(Target(cls, method, span, counts))
    # Figure-row reads: every derived total a figure or report pulls
    # from a result.
    for name, attribute in SimulationResult.__dict__.items():
        if isinstance(attribute, property) or name == "summary":
            found.append(Target(SimulationResult, name, "results.rows"))
    return found


def _timed(recorder: Recorder, target: Target, func: Callable) -> Callable:
    name, counts = target.span, target.counts
    if inspect.iscoroutinefunction(func):

        @functools.wraps(func)
        async def async_wrapper(*args, **kwargs):
            index = recorder.begin(name)
            try:
                result = await func(*args, **kwargs)
            except BaseException:
                recorder.end(index, error=True)
                raise
            recorder.end(index, counts(args, kwargs, result) if counts else None)
            return result

        return async_wrapper

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            result = func(*args, **kwargs)
        except BaseException:
            recorder.end(index, error=True)
            raise
        recorder.end(index, counts(args, kwargs, result) if counts else None)
        return result

    return wrapper


def _wrapped_attribute(recorder: Recorder, target: Target, original: object) -> object:
    """``original`` with its function wrapped, keeping the descriptor kind."""
    if isinstance(original, classmethod):
        return classmethod(_timed(recorder, target, original.__func__))
    if isinstance(original, property):
        return property(
            _timed(recorder, target, original.fget), original.fset, original.fdel, original.__doc__
        )
    if not callable(original):
        raise TypeError(f"cannot wrap non-callable {target.key!r}")
    return _timed(recorder, target, original)


@contextmanager
def installed(recorder: Recorder, wrap: list[Target] | None = None) -> Iterator[None]:
    """Wrap every target for the duration of the block, then restore."""
    restore: list[tuple[object, str, object]] = []
    try:
        for target in targets() if wrap is None else wrap:
            owner, key = target.owner, target.key
            if isinstance(owner, dict):
                original = owner[key]
                owner[key] = _wrapped_attribute(recorder, target, original)
            elif isinstance(owner, type):
                if key not in owner.__dict__:
                    raise AttributeError(f"{owner.__name__} does not itself define {key!r}")
                original = owner.__dict__[key]
                setattr(owner, key, _wrapped_attribute(recorder, target, original))
            else:
                original = getattr(owner, key)
                setattr(owner, key, _wrapped_attribute(recorder, target, original))
            restore.append((owner, key, original))
        yield
    finally:
        for owner, key, original in reversed(restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

"""Content-addressed caching of simulation results.

Results are keyed by ``sha256(code_version_salt + spec.digest())``: the
spec digest covers every simulation input, and the code-version salt --
a fingerprint of the ``repro`` sources that can affect simulation
outputs -- invalidates all entries whenever the simulator, policies, or
models change.

The salt is *analysis-derived*: simcheck's digest-safety certification
(:func:`repro.lint.analysis.certify.certified_files`) computes the set
of files reachable from the digest entry points (``Engine.run``,
``run_reference``, policy ``decide`` implementations,
``SimulationSpec.digest``, ``repro.faults.apply``) as the union of the
interprocedural call-graph closure and the module import closure -- a
sound file-granularity over-approximation.  Each certified file is
hashed in AST-normalized form (docstrings, comments, and formatting
stripped), so a comment-only edit to the engine no longer evicts a
warmed sweep cache while any semantic edit still does.  The
experiment/analysis/lint layers fall outside the certified set: editing
a figure script -- or the analyzer itself -- must not evict the
simulations it re-plots.  If certification fails for any reason the
salt falls back to byte-hashing the packages in ``_SALTED_PACKAGES``,
which can only over-evict, never serve stale results.

The in-memory layer is always on; the on-disk layer is opt-in via
``$REPRO_CACHE_DIR`` (explicit directory) or ``$REPRO_DISK_CACHE=1``
(default ``~/.cache/repro``).  ``$REPRO_NO_CACHE=1`` disables caching in
:func:`repro.simulator.runner.run_many` entirely.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from functools import lru_cache
from pathlib import Path

from repro.errors import SimulationError
from repro.simulator.results import SimulationResult

__all__ = [
    "code_version_salt",
    "ResultCache",
    "default_cache",
    "reset_default_cache",
]

#: Packages (relative to the ``repro`` root) whose sources determine
#: simulation outputs -- the *fallback* salt scope, used only when the
#: certified salt cannot be computed.  Top-level modules (units,
#: errors, ...) are always included.  ``faults`` belongs here because
#: fault plans fold into ``SimulationSpec.digest()`` and fault
#: application changes the simulated outcome; ``obs`` because engine
#: metrics are folded into cached :class:`SimulationResult` payloads.
_SALTED_PACKAGES = (
    "carbon",
    "cluster",
    "faults",
    "obs",
    "policies",
    "simulator",
    "workload",
)

#: Subtrees never certified into the salt.  ``repro.lint`` is excluded
#: explicitly because this module imports the analyzer to *compute* the
#: salt; without the exclusion that import would pull the whole lint
#: layer into its own certified set and every analyzer edit would evict
#: every cached sweep.
_SALT_EXCLUDED_SUBTREES = ("repro.lint",)


def _is_salt_excluded(module: str) -> bool:
    return any(
        module == subtree or module.startswith(subtree + ".")
        for subtree in _SALT_EXCLUDED_SUBTREES
    )


def _certified_salt(root: Path) -> str:
    """AST-normalized fingerprint of the certified reachable file set.

    ``root`` is the installed ``repro`` package directory.  Raises on
    any certification problem (unparseable tree, no entry points) --
    the caller falls back to :func:`_fallback_salt`.
    """
    from repro.lint.analysis.certify import certified_files
    from repro.lint.analysis.fingerprint import fingerprint_files
    from repro.lint.analysis.project import ProjectContext

    project = ProjectContext.from_root(root, package="repro")
    pruned = ProjectContext.from_contexts(
        (
            context
            for name, context in project.modules.items()
            if not _is_salt_excluded(name)
        ),
        root_package="repro",
    )
    return fingerprint_files(root, certified_files(pruned))


def _fallback_salt(root: Path) -> str:
    """Byte-level SHA-256 over the ``_SALTED_PACKAGES`` sources.

    Coarser than the certified salt on both axes -- whole packages
    instead of the reachable set, raw bytes instead of normalized ASTs
    -- so it can only evict more, never serve stale results.
    """
    files = sorted(root.glob("*.py"))
    for package in _SALTED_PACKAGES:
        files.extend(sorted((root / package).rglob("*.py")))
    hasher = hashlib.sha256()
    for path in files:
        hasher.update(path.relative_to(root).as_posix().encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


@lru_cache(maxsize=1)
def code_version_salt() -> str:
    """Fingerprint of the simulation-affecting ``repro`` source files.

    The certified salt (see module docstring) when the analysis
    succeeds, the package byte-hash otherwise.  Cached per process:
    source files do not change under a running simulation, and the
    one-time analysis costs well under a second.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    try:
        return _certified_salt(root)
    except Exception:
        return _fallback_salt(root)


class ResultCache:
    """Two-layer (memory + optional disk) cache of simulation results.

    Parameters
    ----------
    disk_dir:
        Directory for pickled results, or ``None`` for memory-only.
        Created lazily on the first write.
    """

    def __init__(self, disk_dir: str | Path | None = None):
        self._memory: dict[str, SimulationResult] = {}
        self.disk_dir = Path(disk_dir).expanduser() if disk_dir is not None else None
        self.hits = 0
        self.misses = 0
        # Per-layer observability counters (hits = memory_hits + disk_hits);
        # run_many folds their deltas into RunStats.metrics as cache.*.
        self.memory_hits = 0
        self.disk_hits = 0
        self.writes = 0

    @classmethod
    def from_env(cls, environ=None) -> "ResultCache":
        """Build a cache from ``$REPRO_CACHE_DIR`` / ``$REPRO_DISK_CACHE``."""
        env = os.environ if environ is None else environ
        cache_dir = env.get("REPRO_CACHE_DIR", "")
        if cache_dir:
            return cls(disk_dir=cache_dir)
        if env.get("REPRO_DISK_CACHE", "") == "1":
            return cls(disk_dir=Path.home() / ".cache" / "repro")
        return cls()

    def key_for(self, spec) -> str:
        """The cache key of a spec: its digest salted by the code version."""
        return hashlib.sha256(
            f"{code_version_salt()}:{spec.digest()}".encode()
        ).hexdigest()

    def get(self, key: str) -> SimulationResult | None:
        """The cached result for ``key``, or ``None`` (counted as a miss)."""
        found = self._memory.get(key)
        if found is not None:
            self.hits += 1
            self.memory_hits += 1
            return found
        if self.disk_dir is not None:
            found = self._read_disk(key)
            if found is not None:
                self._memory[key] = found
                self.hits += 1
                self.disk_hits += 1
                return found
        self.misses += 1
        return None

    def layer_counters(self) -> dict[str, int]:
        """Current per-layer counters (for metrics deltas in ``run_many``)."""
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "writes": self.writes,
        }

    def put(self, key: str, result: SimulationResult) -> None:
        """Store a result under ``key`` in every configured layer."""
        self._memory[key] = result
        self.writes += 1
        if self.disk_dir is not None:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            handle, staging_path = tempfile.mkstemp(dir=self.disk_dir, suffix=".tmp")
            try:
                with os.fdopen(handle, "wb") as stream:
                    pickle.dump(result, stream, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(staging_path, self.disk_dir / f"{key}.pkl")
            except OSError:
                if os.path.exists(staging_path):
                    os.unlink(staging_path)
                raise

    def clear(self) -> None:
        """Drop the memory layer and reset counters (disk is untouched)."""
        self._memory.clear()
        self.hits = 0
        self.misses = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.writes = 0

    def __len__(self) -> int:
        return len(self._memory)

    def _read_disk(self, key: str) -> SimulationResult | None:
        path = self.disk_dir / f"{key}.pkl"
        try:
            with open(path, "rb") as stream:
                found = pickle.load(stream)
        except FileNotFoundError:
            return None
        except (
            OSError,
            pickle.UnpicklingError,
            EOFError,
            AttributeError,
            ImportError,
            ValueError,
            IndexError,
            SimulationError,
        ):
            # A truncated or stale entry is a miss, not an error.  Bad
            # pickle bytes surface as more than UnpicklingError: an
            # unsupported-protocol byte raises ValueError, a truncated
            # memo reference IndexError, result columns that disagree in
            # length SimulationError.
            return None
        return found if isinstance(found, _cacheable_types()) else None


@lru_cache(maxsize=1)
def _cacheable_types() -> tuple[type, ...]:
    """Result types a disk entry may legitimately deserialize into.

    Imported lazily: the federation and scaling packages import the
    runner (for ``FrozenSeries``/``FrozenWorkload``), so a module-level
    import here would cycle.
    """
    from repro.federation.simulation import FederatedResult
    from repro.scaling.spec import ScalingResult

    return (SimulationResult, FederatedResult, ScalingResult)


_DEFAULT_CACHE: ResultCache | None = None


def default_cache() -> ResultCache:
    """The process-wide cache, built from the environment on first use."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = ResultCache.from_env()
    return _DEFAULT_CACHE


def reset_default_cache() -> None:
    """Forget the process-wide cache (tests; env changes)."""
    global _DEFAULT_CACHE
    _DEFAULT_CACHE = None

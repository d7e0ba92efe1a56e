"""Journaled, resumable sweep campaigns.

A :class:`Campaign` persists a sweep to a directory so an interrupted
run -- crash, SIGKILL, preempted host -- resumes with zero re-executions
of completed work:

* ``campaign.json`` -- manifest (name, spec counts);
* ``specs.pkl`` -- the full spec list, pickled once at creation (the
  pickle memo keeps specs sharing a workload payload small);
* ``journal.jsonl`` -- append-only completion journal.  Every line is a
  self-contained JSON record keyed by the spec *digest*; completions
  are appended (and flushed) the moment a result lands, via
  ``run_many``'s streaming ``on_result`` hook, so the journal is
  crash-consistent at line granularity.  Corrupt lines (a torn final
  line after SIGKILL) are skipped on read;
* ``results/<digest>.pkl`` -- one atomically-written pickle per
  completed distinct digest, published *before* its journal line so a
  journaled completion always has a readable result.  Digest-keyed, so
  entries survive across processes and code-version salt changes never
  orphan them silently (an unreadable or missing file simply demotes
  the digest back to pending).

Resume = load the spec list, replay the journal, and hand only the
still-incomplete distinct digests to :func:`run_many` -- on either
backend.  The sweep recovery semantics (retries, timeouts,
partial results, :class:`~repro.errors.SweepError`) apply unchanged
because the campaign layer sits entirely above the backend seam.  A
``campaign.lock`` file (``flock``) makes concurrent runs of the same
directory a :class:`~repro.errors.CampaignError` instead of a journal
race.  ``docs/sweeps.md`` documents the journal format and the CLI
(``python -m repro.simulator.runner resume <dir>``).
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import CampaignError
from repro.obs.events import CampaignCompleted, CampaignCreated, CampaignResumed
from repro.obs.tracer import Tracer, tracer_from_env
from repro.simulator.results import SimulationResult
from repro.simulator.runner.cache import ResultCache
from repro.simulator.runner.execute import RunStats, SpecFailure, run_many
from repro.simulator.runner.spec import SimulationSpec

__all__ = ["Campaign", "CampaignReport"]

_MANIFEST_NAME = "campaign.json"
_SPECS_NAME = "specs.pkl"
_JOURNAL_NAME = "journal.jsonl"
_RESULTS_DIR = "results"
_LOCK_NAME = "campaign.lock"
_MANIFEST_VERSION = 1


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Publish ``payload`` at ``path`` via tempfile + atomic rename."""
    handle, staging_path = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(payload)
        os.replace(staging_path, path)
    except OSError:
        if os.path.exists(staging_path):
            os.unlink(staging_path)
        raise


@dataclass
class CampaignReport:
    """The outcome of one :meth:`Campaign.run` invocation.

    ``results`` aligns with the campaign's submitted spec list (``None``
    in slots whose digest is still incomplete); ``failures`` reports
    this run's exhausted specs re-indexed to campaign slots (aliases
    included); ``stats`` is the underlying :class:`RunStats` of the
    ``run_many`` call (executions this run only -- journal-served
    completions appear in neither ``executed`` nor ``cache_hits``).
    ``complete`` is true when every distinct digest has a result.
    """

    results: list[SimulationResult | None]
    stats: RunStats
    failures: list[SpecFailure] = field(default_factory=list)
    complete: bool = False

    def results_digest(self) -> str:
        """Order-sensitive digest of the per-spec result digests.

        The parity oracle for resume testing: an interrupted-then-
        resumed campaign must produce the same value as an uninterrupted
        run.  Incomplete slots contribute a ``"missing"`` sentinel.
        """
        hasher = hashlib.sha256()
        for result in self.results:
            token = result.digest() if result is not None else "missing"
            hasher.update(token.encode())
            hasher.update(b"\n")
        return hasher.hexdigest()


class Campaign:
    """A sweep persisted to a directory with a completion journal."""

    def __init__(self, directory: Path, name: str, specs: list[SimulationSpec]):
        self.directory = directory
        self.name = name
        self.specs = specs
        self._digests = [spec.digest() for spec in specs]
        # Distinct digests in first-occurrence order: the campaign's
        # actual unit of work (aliases ride along, as in run_many).
        self._distinct: list[str] = []
        self._first_index: dict[str, int] = {}
        for index, digest in enumerate(self._digests):
            if digest not in self._first_index:
                self._first_index[digest] = index
                self._distinct.append(digest)

    # -- construction --------------------------------------------------
    @classmethod
    def create(
        cls,
        directory: str | Path,
        specs,
        name: str = "campaign",
        tracer: Tracer | None = None,
    ) -> "Campaign":
        """Initialize a campaign directory from a spec list.

        The directory must not already hold a campaign.  Specs are
        pickled once; everything else starts empty.
        """
        directory = Path(directory)
        spec_list = list(specs)
        if not spec_list:
            raise CampaignError("a campaign needs at least one spec")
        directory.mkdir(parents=True, exist_ok=True)
        if (directory / _MANIFEST_NAME).exists():
            raise CampaignError(f"{directory} already holds a campaign")
        campaign = cls(directory, name, spec_list)
        (directory / _RESULTS_DIR).mkdir(exist_ok=True)
        _atomic_write_bytes(
            directory / _SPECS_NAME,
            pickle.dumps(spec_list, protocol=pickle.HIGHEST_PROTOCOL),
        )
        manifest = {
            "version": _MANIFEST_VERSION,
            "name": name,
            "total": len(spec_list),
            "distinct": len(campaign._distinct),
        }
        _atomic_write_bytes(
            directory / _MANIFEST_NAME,
            json.dumps(manifest, indent=2).encode() + b"\n",
        )
        (directory / _JOURNAL_NAME).touch()
        if tracer is None:
            tracer = tracer_from_env()
        if tracer.enabled:
            tracer.emit(
                CampaignCreated(
                    name=name,
                    total=len(spec_list),
                    distinct=len(campaign._distinct),
                )
            )
        return campaign

    @classmethod
    def load(cls, directory: str | Path) -> "Campaign":
        """Open an existing campaign directory."""
        directory = Path(directory)
        manifest_path = directory / _MANIFEST_NAME
        try:
            manifest = json.loads(manifest_path.read_text())
        except FileNotFoundError:
            raise CampaignError(f"{directory} holds no campaign manifest") from None
        except (OSError, ValueError) as error:
            raise CampaignError(f"unreadable campaign manifest: {error}") from error
        if manifest.get("version") != _MANIFEST_VERSION:
            raise CampaignError(
                f"unsupported campaign manifest version {manifest.get('version')!r}"
            )
        try:
            with open(directory / _SPECS_NAME, "rb") as stream:
                spec_list = pickle.load(stream)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError) as error:
            raise CampaignError(f"unreadable campaign spec list: {error}") from error
        campaign = cls(directory, str(manifest.get("name", "campaign")), spec_list)
        if len(spec_list) != manifest.get("total"):
            raise CampaignError(
                "campaign spec list disagrees with its manifest "
                f"({len(spec_list)} specs vs total={manifest.get('total')})"
            )
        return campaign

    # -- journal -------------------------------------------------------
    def journaled_completions(self) -> set[str]:
        """Digests the journal marks complete (corruption-tolerant).

        A torn or garbage line (e.g. the final line after a SIGKILL
        mid-append) is skipped; only well-formed ``completed`` records
        count.
        """
        completed: set[str] = set()
        try:
            raw = (self.directory / _JOURNAL_NAME).read_text()
        except OSError:
            return completed
        for line in raw.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and record.get("event") == "completed":
                digest = record.get("digest")
                if isinstance(digest, str):
                    completed.add(digest)
        return completed

    def _result_path(self, digest: str) -> Path:
        return self.directory / _RESULTS_DIR / f"{digest}.pkl"

    def _load_result(self, digest: str) -> SimulationResult | None:
        """Read one published result; any corruption demotes to pending."""
        try:
            with open(self._result_path(digest), "rb") as stream:
                found = pickle.load(stream)
        except (
            OSError,
            pickle.UnpicklingError,
            EOFError,
            AttributeError,
            ImportError,
            ValueError,
            IndexError,
        ):
            return None
        from repro.simulator.runner.cache import _cacheable_types

        return found if isinstance(found, _cacheable_types()) else None

    def completed_results(self) -> dict[str, SimulationResult]:
        """Journaled completions whose result files load cleanly."""
        loaded: dict[str, SimulationResult] = {}
        for digest in self.journaled_completions():
            if digest not in self._first_index:
                continue  # journal entry for a spec no longer in the list
            result = self._load_result(digest)
            if result is not None:
                loaded[digest] = result
        return loaded

    def status(self) -> dict:
        """A summary of campaign progress (for the CLI and tests)."""
        completed = {
            digest
            for digest in self.journaled_completions()
            if digest in self._first_index
        }
        return {
            "name": self.name,
            "directory": str(self.directory),
            "total": len(self.specs),
            "distinct": len(self._distinct),
            "completed": len(completed),
            "remaining": len(self._distinct) - len(completed),
        }

    # -- execution -----------------------------------------------------
    def run(
        self,
        jobs: int | None = None,
        backend: str | None = None,
        cache: ResultCache | None = None,
        use_cache: bool = True,
        stats: RunStats | None = None,
        tracer: Tracer | None = None,
        retries: int | None = None,
        timeout: float | None = None,
        backoff: float = 0.05,
        on_error: str = "raise",
        limit: int | None = None,
    ) -> CampaignReport:
        """Run (or resume) the campaign's incomplete distinct specs.

        Replays the journal, submits one spec per still-incomplete
        distinct digest to :func:`run_many` (all recovery knobs pass
        through), and journals each completion as it streams in.
        ``limit`` caps this run at the first N incomplete digests --
        useful for deliberately partial runs in tests.  ``on_error``
        follows the ``run_many`` contract: ``"raise"`` raises
        :class:`~repro.errors.SweepError` (with campaign-aligned partial
        results) when specs fail, ``"partial"`` reports them on the
        returned :class:`CampaignReport`.
        """
        stats = stats if stats is not None else RunStats()
        if tracer is None:
            tracer = tracer_from_env()
        lock_stream = open(self.directory / _LOCK_NAME, "w")
        try:
            try:
                fcntl.flock(lock_stream.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                raise CampaignError(
                    f"campaign {self.directory} is locked by another runner"
                ) from None
            return self._run_locked(
                jobs=jobs,
                backend=backend,
                cache=cache,
                use_cache=use_cache,
                stats=stats,
                tracer=tracer,
                retries=retries,
                timeout=timeout,
                backoff=backoff,
                on_error=on_error,
                limit=limit,
            )
        finally:
            lock_stream.close()  # releases the flock

    def _run_locked(
        self,
        jobs,
        backend,
        cache,
        use_cache,
        stats: RunStats,
        tracer: Tracer,
        retries,
        timeout,
        backoff,
        on_error,
        limit,
    ) -> CampaignReport:
        """The body of :meth:`run`, with the campaign lock held."""
        by_digest = self.completed_results()
        incomplete = [d for d in self._distinct if d not in by_digest]
        if tracer.enabled:
            tracer.emit(
                CampaignResumed(
                    name=self.name,
                    completed=len(by_digest),
                    remaining=len(incomplete),
                )
            )
        target = incomplete if limit is None else incomplete[: max(0, limit)]
        pending = [self.specs[self._first_index[d]] for d in target]

        journal_stream = open(self.directory / _JOURNAL_NAME, "a")
        try:

            def _journal_completion(
                _index: int, spec: SimulationSpec, result: SimulationResult
            ) -> None:
                """Publish the result file, then append its journal line."""
                digest = spec.digest()
                _atomic_write_bytes(
                    self._result_path(digest),
                    pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL),
                )
                journal_stream.write(
                    json.dumps({"event": "completed", "digest": digest}) + "\n"
                )
                journal_stream.flush()

            run_results = run_many(
                pending,
                jobs=jobs,
                cache=cache,
                use_cache=use_cache,
                stats=stats,
                tracer=tracer,
                retries=retries,
                timeout=timeout,
                backoff=backoff,
                on_error="partial",
                backend=backend,
                on_result=_journal_completion,
            )
            for failure in stats.failures:
                journal_stream.write(
                    json.dumps(
                        {
                            "event": "failed",
                            "digest": failure.digest,
                            "error_type": failure.error_type,
                            "attempts": failure.attempts,
                        }
                    )
                    + "\n"
                )
            journal_stream.flush()
        finally:
            journal_stream.close()

        for run_index, result in enumerate(run_results):
            if result is not None:
                by_digest[target[run_index]] = result
        results = [by_digest.get(digest) for digest in self._digests]
        failures = self._campaign_failures(stats.failures, target)
        remaining = sum(1 for digest in self._distinct if digest not in by_digest)
        if tracer.enabled:
            tracer.emit(
                CampaignCompleted(
                    name=self.name,
                    executed=stats.executed,
                    failed=len(failures),
                    remaining=remaining,
                )
            )
        report = CampaignReport(
            results=results,
            stats=stats,
            failures=failures,
            complete=remaining == 0,
        )
        if failures and on_error == "raise":
            from repro.errors import SweepError

            first = failures[0]
            raise SweepError(
                f"{len(failures)} campaign slots failed after recovery; "
                f"first: spec {first.index} [{first.error_type}] {first.message}",
                results=results,
                failures=failures,
            )
        return report

    def _campaign_failures(
        self, run_failures: list[SpecFailure], target: list[str]
    ) -> list[SpecFailure]:
        """Re-index a run's failures to campaign slots (aliases too)."""
        failures: list[SpecFailure] = []
        for failure in run_failures:
            digest = failure.digest
            for index, spec_digest in enumerate(self._digests):
                if spec_digest == digest:
                    failures.append(
                        SpecFailure(
                            index=index,
                            digest=digest,
                            error_type=failure.error_type,
                            message=failure.message,
                            attempts=failure.attempts,
                        )
                    )
        seen: set[int] = set()
        deduped = []
        for failure in sorted(failures, key=lambda f: f.index):
            if failure.index not in seen:
                seen.add(failure.index)
                deduped.append(failure)
        return deduped

"""Regression tests for the cache's code-version salt coverage.

The result cache keys on ``sha256(code_version_salt + spec.digest())``;
a package that shapes ``SimulationSpec.digest()`` semantics or the
simulated outcome but is missing from the salt silently serves stale
results after a semantic edit (the ``repro.faults`` bug this file
guards against).
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.lint.analysis.certify as certify
import repro.lint.analysis.entrypoints as entrypoints
from repro.simulator.runner.cache import (
    _SALT_MEMO,
    _SALTED_PACKAGES,
    _analyzed_salt,
    _certified_salt,
    _fallback_salt,
    code_version_salt,
)

REPRO_ROOT = Path(repro.__file__).resolve().parent

#: Modules whose semantics flow into spec digests and cached results:
#: the spec itself (digest / thaw / run), the simulation assembly, and
#: fault application (folded into digests via ``FaultPlan.digest``).
_DIGEST_SEED_MODULES = (
    "repro.simulator.runner.spec",
    "repro.simulator.simulation",
    "repro.faults.apply",
)


def _module_path(module: str) -> Path | None:
    """The source file of a ``repro.*`` dotted module, if it exists."""
    relative = Path(*module.split(".")[1:])
    for candidate in (
        REPRO_ROOT / relative.parent / f"{relative.name}.py",
        REPRO_ROOT / relative / "__init__.py",
    ):
        if candidate.is_file():
            return candidate
    return None


def _imported_repro_modules(path: Path) -> set[str]:
    """Every ``repro.*`` module imported anywhere in one source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(
                alias.name for alias in node.names if alias.name.startswith("repro")
            )
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module and node.module.startswith("repro"):
                imported.add(node.module)
                # ``from repro.x import y`` may name a submodule, not an
                # attribute; include the candidate so closure follows it.
                imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    return imported


def _import_closure(seeds: tuple[str, ...]) -> set[str]:
    """Transitive ``repro.*`` import closure over the source tree."""
    seen: set[str] = set()
    frontier = [module for module in seeds if _module_path(module) is not None]
    while frontier:
        module = frontier.pop()
        if module in seen:
            continue
        path = _module_path(module)
        if path is None:
            continue
        seen.add(module)
        frontier.extend(_imported_repro_modules(path) - seen)
    return seen


class TestSaltCoverage:
    def test_every_digest_feeding_package_is_salted(self):
        closure = _import_closure(_DIGEST_SEED_MODULES)
        assert closure, "import closure unexpectedly empty"
        needed_packages = {
            module.split(".")[1]
            for module in closure
            if module.count(".") >= 2  # repro.<package>.<module>
        }
        missing = sorted(needed_packages - set(_SALTED_PACKAGES))
        assert not missing, (
            f"packages {missing} feed SimulationSpec.digest()/simulation "
            "semantics but are not in _SALTED_PACKAGES; stale cached results "
            "would survive semantic edits there"
        )

    def test_faults_package_is_salted(self):
        # The concrete historical bug: editing fault-application semantics
        # must evict cached results.
        assert "faults" in _SALTED_PACKAGES


@pytest.fixture(scope="module")
def repro_copy(tmp_path_factory) -> Path:
    """A private writable copy of the installed ``repro`` tree."""
    destination = tmp_path_factory.mktemp("salt") / "repro"
    shutil.copytree(REPRO_ROOT, destination, ignore=shutil.ignore_patterns("__pycache__"))
    return destination


def _edit(root: Path, relative: str, append: str) -> str:
    """Append text to a file under ``root``; return the original source."""
    path = root / relative
    original = path.read_text(encoding="utf-8")
    path.write_text(original + append, encoding="utf-8")
    return original


class TestCertifiedSalt:
    """The ISSUE acceptance criterion: the salt tracks semantics, not bytes."""

    def test_matches_installed_tree(self, repro_copy: Path):
        # The copy fingerprints identically to the installed sources, so
        # the edit tests below isolate exactly the edit's effect.
        assert _certified_salt(repro_copy) == _certified_salt(REPRO_ROOT)

    def test_comment_only_edit_to_engine_keeps_salt(self, repro_copy: Path):
        before = _certified_salt(repro_copy)
        original = _edit(
            repro_copy, "simulator/engine.py", "\n# a trailing comment, no semantics\n"
        )
        try:
            assert _certified_salt(repro_copy) == before
        finally:
            (repro_copy / "simulator/engine.py").write_text(
                original, encoding="utf-8"
            )

    def test_docstring_edit_to_engine_keeps_salt(self, repro_copy: Path):
        path = repro_copy / "simulator" / "engine.py"
        original = path.read_text(encoding="utf-8")
        assert original.startswith('"""')
        before = _certified_salt(repro_copy)
        path.write_text('"""Rewritten docstring."""' + original.split('"""', 2)[2],
                        encoding="utf-8")
        try:
            assert _certified_salt(repro_copy) == before
        finally:
            path.write_text(original, encoding="utf-8")

    def test_semantic_edit_to_faults_apply_changes_salt(self, repro_copy: Path):
        before = _certified_salt(repro_copy)
        original = _edit(repro_copy, "faults/apply.py", "\n_SALT_PROBE = 1\n")
        try:
            assert _certified_salt(repro_copy) != before
        finally:
            (repro_copy / "faults/apply.py").write_text(original, encoding="utf-8")

    def test_semantic_edit_to_engine_changes_salt(self, repro_copy: Path):
        before = _certified_salt(repro_copy)
        original = _edit(repro_copy, "simulator/engine.py", "\n_SALT_PROBE = 1\n")
        try:
            assert _certified_salt(repro_copy) != before
        finally:
            (repro_copy / "simulator/engine.py").write_text(
                original, encoding="utf-8"
            )

    def test_edit_outside_certified_set_keeps_salt(self, repro_copy: Path):
        # Experiment/figure scripts and the lint layer are not certified:
        # editing them must not evict warmed sweep caches.
        before = _certified_salt(repro_copy)
        originals = [
            (relative, _edit(repro_copy, relative, "\n_SALT_PROBE = 1\n"))
            for relative in ("experiments/registry.py", "lint/findings.py")
        ]
        try:
            assert _certified_salt(repro_copy) == before
        finally:
            for relative, original in originals:
                (repro_copy / relative).write_text(original, encoding="utf-8")

    def test_fallback_salt_is_byte_sensitive(self, repro_copy: Path):
        before = _fallback_salt(repro_copy)
        original = _edit(repro_copy, "simulator/engine.py", "\n# comment\n")
        try:
            assert _fallback_salt(repro_copy) != before
        finally:
            (repro_copy / "simulator/engine.py").write_text(
                original, encoding="utf-8"
            )

    def test_code_version_salt_falls_back_on_analysis_failure(self, monkeypatch):
        import repro.simulator.runner.cache as cache_module

        def boom(root: Path) -> str:
            raise RuntimeError("certification broke")

        monkeypatch.setattr(cache_module, "_certified_salt", boom)
        code_version_salt.cache_clear()
        try:
            assert code_version_salt() == _fallback_salt(REPRO_ROOT)
        finally:
            code_version_salt.cache_clear()

    def test_code_version_salt_is_certified_salt(self):
        code_version_salt.cache_clear()
        try:
            assert code_version_salt() == _certified_salt(REPRO_ROOT)
        finally:
            code_version_salt.cache_clear()


def _copy_tree(parent: Path) -> Path:
    """A copy of the installed ``repro`` tree at ``parent/repro``, no bytecode."""
    destination = parent / "repro"
    shutil.copytree(REPRO_ROOT, destination, ignore=shutil.ignore_patterns("__pycache__"))
    return destination


class _AnalysisRan(Exception):
    pass


def _refuse_analysis(monkeypatch) -> None:
    """Make any run of the analysis raise: a call that returns was a memo hit."""

    def refuse(*args, **kwargs):
        raise _AnalysisRan

    monkeypatch.setattr(certify, "certified_files", refuse)


@pytest.fixture(scope="module")
def warm_memo(tmp_path_factory) -> tuple[str, bytes]:
    """The certified salt of a fresh copy, and the memo its first call wrote."""
    root = _copy_tree(tmp_path_factory.mktemp("memo"))
    salt = _certified_salt(root)
    return salt, (root / _SALT_MEMO).read_bytes()


@pytest.fixture
def warm_tree(tmp_path: Path, warm_memo: tuple[str, bytes]) -> Path:
    """A private copy of the tree whose memo is already written."""
    root = _copy_tree(tmp_path)
    (root / _SALT_MEMO).parent.mkdir()
    (root / _SALT_MEMO).write_bytes(warm_memo[1])
    return root


class TestSaltMemo:
    """The certified salt is analyzed once per source tree, then read from disk.

    Each test proves a hit or a miss by making the analysis raise: a hit
    returns, a miss propagates the error.
    """

    def test_a_second_call_hits_the_memo(self, warm_tree, warm_memo, monkeypatch):
        _refuse_analysis(monkeypatch)
        assert _certified_salt(warm_tree) == warm_memo[0]

    def test_the_memo_holds_the_analyzed_salt(self, warm_memo):
        assert warm_memo[0] == _analyzed_salt(REPRO_ROOT) == code_version_salt()
        assert json.loads(warm_memo[1])["salt"] == warm_memo[0]

    def test_a_semantic_edit_misses_the_memo(self, warm_tree, monkeypatch):
        _edit(warm_tree, "simulator/engine.py", "\n_SALT_PROBE = 1\n")
        _refuse_analysis(monkeypatch)
        with pytest.raises(_AnalysisRan):
            _certified_salt(warm_tree)

    def test_a_comment_only_edit_misses_but_keeps_the_salt(
        self, warm_tree, warm_memo, monkeypatch
    ):
        _edit(warm_tree, "simulator/engine.py", "\n# a trailing comment\n")
        _refuse_analysis(monkeypatch)
        with pytest.raises(_AnalysisRan):
            _certified_salt(warm_tree)
        monkeypatch.undo()
        assert _certified_salt(warm_tree) == warm_memo[0]
        # The memo was overwritten in place: still one file.
        assert [path.name for path in (warm_tree / "__pycache__").iterdir()] == [
            _SALT_MEMO.name
        ]
        assert (warm_tree / _SALT_MEMO).read_bytes() != warm_memo[1]

    @pytest.mark.parametrize("damage", ["garbage", "truncated", "bad-salt"])
    def test_a_damaged_memo_is_recomputed_and_rewritten(
        self, warm_tree, warm_memo, monkeypatch, damage
    ):
        memo = warm_tree / _SALT_MEMO
        if damage == "garbage":
            memo.write_bytes(b"\x00\xffnot json at all")
        elif damage == "truncated":
            memo.write_bytes(warm_memo[1][: len(warm_memo[1]) // 2])
        else:
            fields = json.loads(warm_memo[1])
            memo.write_text(json.dumps({**fields, "salt": fields["salt"][:63]}))
        _refuse_analysis(monkeypatch)
        with pytest.raises(_AnalysisRan):
            _certified_salt(warm_tree)
        monkeypatch.undo()
        assert _certified_salt(warm_tree) == warm_memo[0]
        assert memo.read_bytes() == warm_memo[1]

    def test_a_failed_write_still_returns_the_salt(self, tmp_path, warm_memo, monkeypatch):
        root = _copy_tree(tmp_path)

        def refuse_replace(source, destination):
            raise PermissionError("read-only tree")

        monkeypatch.setattr(os, "replace", refuse_replace)
        assert _certified_salt(root) == warm_memo[0]
        # The staging file is cleaned up and no memo is left behind.
        assert list((root / "__pycache__").iterdir()) == []

    def test_a_memo_from_another_python_is_not_served(self, warm_tree, monkeypatch):
        monkeypatch.setattr(sys, "version", sys.version + " [another build]")
        _refuse_analysis(monkeypatch)
        with pytest.raises(_AnalysisRan):
            _certified_salt(warm_tree)

    def test_a_registered_entry_pattern_misses_the_memo(self, warm_tree, monkeypatch):
        # Registration widens the certified set, so a salt analyzed
        # without it must not be served to this process.
        patterns = [*entrypoints.DIGEST_ENTRY_PATTERNS, "*.AnotherEngine.run"]
        monkeypatch.setattr(entrypoints, "DIGEST_ENTRY_PATTERNS", patterns)
        _refuse_analysis(monkeypatch)
        with pytest.raises(_AnalysisRan):
            _certified_salt(warm_tree)

    def test_a_fresh_interpreter_reads_the_memo_without_the_analyzer(
        self, tmp_path, warm_memo
    ):
        _copy_tree(tmp_path)
        probe = (
            "import json, sys\n"
            "import repro\n"
            "from repro.simulator.runner import code_version_salt\n"
            "print(json.dumps({'file': repro.__file__, 'salt': code_version_salt(),"
            " 'analyzed': 'repro.lint.analysis' in sys.modules}))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(tmp_path)}

        def run() -> dict:
            completed = subprocess.run(
                [sys.executable, "-c", probe],
                env=env,
                cwd=tmp_path,
                capture_output=True,
                text=True,
                check=True,
            )
            return json.loads(completed.stdout)

        first, second = run(), run()
        assert Path(first["file"]).parent == tmp_path / "repro"
        assert first["salt"] == second["salt"] == warm_memo[0]
        assert first["analyzed"] is True
        assert second["analyzed"] is False

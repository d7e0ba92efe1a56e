"""The engine's decision pipeline must stay inside the certified set (SIM102).

The batched ``decide_many`` hooks are reached dynamically (the engine
looks them up on the policy instance), and so are the window policies'
score-source and selection hooks (``WindowPolicy`` looks them up on
``self``), so all three are registered as digest entry points in
:data:`DIGEST_ENTRY_PATTERNS`.  These tests pin that registration and
the consequence that matters: every decision-pipeline module -- the
scoring helpers, the window policies, and the engine itself -- appears
in the certification report's file set, and therefore in the result
cache's code-version salt.  Losing any of them would let a semantic
edit to a selection rule silently serve stale cached sweeps.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.lint.analysis.certify import certified_files, entry_functions
from repro.lint.analysis.entrypoints import DIGEST_ENTRY_PATTERNS
from repro.lint.analysis.project import ProjectContext

REPRO_ROOT = Path(repro.__file__).resolve().parent

#: Source files implementing the decision pipeline, relative to the
#: ``repro`` package root.
FAST_PATH_FILES = (
    "policies/scoring.py",
    "policies/lowest_window.py",
    "policies/carbon_time.py",
    "policies/price_aware.py",
    "policies/wrappers.py",
    "simulator/engine.py",
    "carbon/trace.py",
    "carbon/forecast.py",
)


@pytest.fixture(scope="module")
def project() -> ProjectContext:
    return ProjectContext.from_root(REPRO_ROOT, package="repro")


def test_decide_many_is_a_registered_entry_pattern():
    assert "*.decide_many" in DIGEST_ENTRY_PATTERNS


def test_decide_many_hooks_are_entry_functions(project):
    entries = entry_functions(project)
    assert "repro.policies.scoring.WindowPolicy.decide_many" in entries
    assert "repro.policies.scoring.WindowPolicy.select_candidates" in entries
    assert "repro.policies.lowest_window.LowestWindow.score_sources" in entries
    assert "repro.policies.carbon_time.CarbonTime.score_sources" in entries
    assert "repro.policies.carbon_time.CarbonTime.select_candidates" in entries
    assert "repro.policies.price_aware.PriceAware.score_sources" in entries
    assert "repro.policies.price_aware.WeightedCarbonPrice.score_sources" in entries
    assert "repro.policies.price_aware.WeightedCarbonPrice.select_candidates" in entries


def test_fast_path_files_are_certified(project):
    certified = {path.resolve() for path in certified_files(project)}
    missing = [
        relative
        for relative in FAST_PATH_FILES
        if (REPRO_ROOT / relative).resolve() not in certified
    ]
    assert not missing, (
        f"fast-path files {missing} dropped out of the certified set; the "
        "cache salt no longer covers them"
    )

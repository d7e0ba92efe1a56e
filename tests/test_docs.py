"""Documentation stays wired: links resolve, no orphan pages, the
observability contract's schema matches what the docs enumerate, the
service API reference matches the live route table and CLI, and the
private symbols, keywords and dotted ``repro.*`` references the docs
name exist in the code."""

import sys
from pathlib import Path

from repro.obs.events import EVENT_TYPES
from repro.service.__main__ import build_parser
from repro.service.http import route_table

REPO_ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "tools"))
import check_docs  # noqa: E402  (repo tool, imported for its check functions)


class TestLinks:
    def test_all_relative_links_resolve(self):
        assert check_docs.check_links(check_docs.doc_pages()) == []

    def test_every_docs_page_is_linked_from_the_readme(self):
        assert check_docs.check_docs_reachable() == []


class TestDocSymbols:
    def test_docs_name_only_symbols_the_code_defines(self):
        assert check_docs.check_doc_symbols() == []

    def test_a_page_naming_removed_symbols_is_rejected(self, tmp_path):
        page = tmp_path / "stale.md"
        page.write_text(
            "The memo counters stay equal via `_precomputed_fresh`; pass\n"
            "`fast_path=False` to force the scalar loop. `_run_linear` and\n"
            "`granularity=1` and the `_on_*` handlers still exist.\n"
        )
        problems = check_docs.check_doc_symbols([page])
        assert len(problems) == 2
        assert "`_precomputed_fresh`" in problems[0]
        assert "`fast_path=`" in problems[1]


class TestDottedReferences:
    def test_docs_dotted_references_resolve(self):
        assert check_docs.check_dotted_references() == []

    def test_a_page_naming_a_removed_module_is_rejected(self, tmp_path):
        page = tmp_path / "stale.md"
        page.write_text(
            "Sweeps fan out via `repro.simulator.runner.workqueue.WorkQueueBackend`\n"
            "or `repro.simulator.runner.backends.BACKENDS`; see\n"
            "`repro.experiments.base.sweep(specs)` and `repro.simulator.session`.\n"
            "`repro.simulator.runner.backends.available_backends()` lists them.\n"
        )
        problems = check_docs.check_dotted_references([page])
        assert problems == [
            f"{page}: names `repro.simulator.runner.backends.available_backends`, "
            "which does not resolve",
            f"{page}: names `repro.simulator.runner.workqueue.WorkQueueBackend`, "
            "which does not resolve",
        ]


class TestObservabilityContract:
    def test_every_event_type_is_documented(self):
        page = (REPO_ROOT / "docs" / "observability.md").read_text()
        for name in EVENT_TYPES:
            assert f"`{name}`" in page, f"event type {name} missing from docs"

    def test_documented_env_switches_exist_in_the_tracer(self):
        tracer_source = (
            REPO_ROOT / "src" / "repro" / "obs" / "tracer.py"
        ).read_text()
        for variable in ("REPRO_TRACE", "REPRO_TRACE_FILE"):
            assert variable in tracer_source


class TestServiceApiContract:
    """docs/service.md matches the introspected service surface."""

    def test_checker_reports_no_drift(self):
        assert check_docs.check_service_api() == []

    def test_every_route_has_a_reference_section(self):
        page = (REPO_ROOT / "docs" / "service.md").read_text()
        for route in route_table():
            heading = f"### {route.method} {route.pattern}"
            assert heading in page, f"{heading} missing from docs/service.md"

    def test_every_cli_flag_is_documented(self):
        page = (REPO_ROOT / "docs" / "service.md").read_text()
        for action in build_parser()._actions:
            for option in action.option_strings:
                if option in ("-h", "--help"):
                    continue
                assert f"`{option}`" in page, f"flag {option} missing from docs"

    def test_route_handlers_exist_on_the_server(self):
        from repro.service.http import ServiceServer

        for route in route_table():
            handler = getattr(ServiceServer, route.handler, None)
            assert callable(handler), f"{route.handler} missing on ServiceServer"

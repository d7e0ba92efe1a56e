#!/usr/bin/env python3
"""Documentation checks: internal links resolve, docs are reachable,
the service API reference matches the code, code symbols and dotted
``repro.*`` references the docs name exist, quickstart commands run.

Six checks (all gate the CI ``docs`` job):

1. every relative markdown link in ``README.md`` and ``docs/*.md``
   points at a file that exists (anchors and external URLs are skipped);
2. every page under ``docs/`` is linked from ``README.md`` — no orphan
   documentation;
3. ``docs/service.md`` matches the service's live surface in **both**
   directions: every route in ``repro.service.http.ROUTES`` has a
   ``### METHOD /path`` section and every documented endpoint exists in
   the route table; every ``python -m repro.service`` parser flag
   appears in the flag reference and every documented flag exists on
   the parser;
4. every backticked private identifier (`` `_name` ``, `` `_name()` ``,
   `` `_on_*` ``) and keyword argument (`` `name=` ``, `` `name=value` ``)
   in ``docs/*.md`` names something defined under ``src/repro`` -- a
   function, class, parameter, or assigned name or attribute, found by
   an AST scan -- so a page cannot describe a symbol the code dropped;
5. with ``--run-quickstart``, the commands the README advertises respond
   to ``--help`` (a dry-run proof the documented entry points exist);
6. every backticked dotted reference into the package
   (`` `repro.a.b` ``, `` `repro.a.b.c()` ``) in ``README.md`` and
   ``docs/*.md`` resolves: the longest importable module prefix is
   imported and the remaining parts are walked with ``getattr``.

Run from the repo root: ``python tools/check_docs.py [--run-quickstart]``.
Exits non-zero with one ``path: message`` line per problem.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Inline markdown links: [text](target). Images share the syntax.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: README entry points proven runnable (--help only, no simulation work).
QUICKSTART_COMMANDS = [
    [sys.executable, "-m", "repro", "--help"],
    [sys.executable, "-m", "repro.lint", "--help"],
    [sys.executable, "-m", "repro.obs", "--help"],
    [sys.executable, "-m", "repro.service", "--help"],
    [sys.executable, "-m", "repro.simulator.runner", "--help"],
    [sys.executable, "examples/paper_figures.py", "--help"],
    [sys.executable, "benchmarks/sweep_smoke.py", "--help"],
]


def doc_pages() -> list[Path]:
    """README plus every markdown page under docs/, in stable order."""
    return [REPO_ROOT / "README.md"] + sorted((REPO_ROOT / "docs").glob("*.md"))


def relative_links(page: Path) -> list[str]:
    """All link targets in ``page`` that should resolve on disk."""
    targets = []
    for target in _LINK.findall(page.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        targets.append(target)
    return targets


def check_links(pages: list[Path]) -> list[str]:
    """Problem messages for link targets that do not exist."""
    problems = []
    for page in pages:
        for target in relative_links(page):
            resolved = (page.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                problems.append(
                    f"{page.relative_to(REPO_ROOT)}: broken link -> {target}"
                )
    return problems


def check_docs_reachable() -> list[str]:
    """Problem messages for docs pages the README never links."""
    readme = REPO_ROOT / "README.md"
    linked = {
        (readme.parent / target.split("#", 1)[0]).resolve()
        for target in relative_links(readme)
    }
    return [
        f"README.md: docs page never linked -> docs/{page.name}"
        for page in sorted((REPO_ROOT / "docs").glob("*.md"))
        if page.resolve() not in linked
    ]


#: Documented endpoints: a heading like ``### GET /jobs/{job_id}``.
_ENDPOINT_HEADING = re.compile(r"^###\s+(GET|POST|PUT|DELETE|PATCH)\s+(/\S*)", re.M)

#: Documented CLI flags: backticked long/short options in service.md's
#: flag table, e.g. ``` `--max-pending` ``` or ``` `-w` ```.
_FLAG_TOKEN = re.compile(r"`(--?[a-z][a-z0-9-]*)`")


def check_service_api() -> list[str]:
    """Problem messages for drift between docs/service.md and the code.

    Introspects the live route table (``repro.service.http.ROUTES``)
    and the ``python -m repro.service`` argument parser, and compares
    both against the documented surface — in both directions, so a
    route or flag added without documentation fails exactly like a
    documented endpoint that no longer exists.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.service.__main__ import build_parser
        from repro.service.http import route_table
    finally:
        sys.path.pop(0)

    page = REPO_ROOT / "docs" / "service.md"
    if not page.exists():
        return ["docs/service.md: missing (the service API reference)"]
    text = page.read_text(encoding="utf-8")
    problems = []

    real_routes = {(route.method, route.pattern) for route in route_table()}
    documented_routes = {
        (method, pattern.rstrip(":")) for method, pattern in _ENDPOINT_HEADING.findall(text)
    }
    for method, pattern in sorted(real_routes - documented_routes):
        problems.append(
            f"docs/service.md: route {method} {pattern} has no `### {method} "
            f"{pattern}` section"
        )
    for method, pattern in sorted(documented_routes - real_routes):
        problems.append(
            f"docs/service.md: documents {method} {pattern}, which is not in "
            f"repro.service.http.ROUTES"
        )

    parser = build_parser()
    real_flags = {
        option
        for action in parser._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    }
    documented_flags = set(_FLAG_TOKEN.findall(text))
    for flag in sorted(real_flags - documented_flags):
        problems.append(
            f"docs/service.md: python -m repro.service flag {flag} is undocumented"
        )
    for flag in sorted(documented_flags - real_flags):
        problems.append(
            f"docs/service.md: documents flag {flag}, which python -m "
            f"repro.service does not accept"
        )
    return problems


#: Backticked private identifiers: `_name`, `_name()`, `_on_*`.
_PRIVATE_SYMBOL = re.compile(r"`(_[A-Za-z][A-Za-z0-9_]*\*?)(?:\(\))?`")

#: Backticked keyword arguments: `name=` or `name=value` (lowercase, so
#: environment assignments such as `REPRO_TRACE=1` are not keywords).
_KEYWORD_SYMBOL = re.compile(r"`([a-z_][a-z0-9_]*)=[^`]*`")


def defined_names() -> set[str]:
    """Every name a module under ``src/repro`` defines.

    Functions, classes, parameters, and every name or attribute stored
    to (assignments, loop and ``with`` targets, dataclass fields).
    """
    names: set[str] = set()
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
    return names


def check_doc_symbols(pages: list[Path] | None = None) -> list[str]:
    """Problem messages for private symbols and keywords the code lacks.

    ``pages`` defaults to every page under ``docs/``.
    """
    if pages is None:
        pages = sorted((REPO_ROOT / "docs").glob("*.md"))
    defined = defined_names()
    problems = []
    for page in pages:
        text = page.read_text(encoding="utf-8")
        shown = page.relative_to(REPO_ROOT) if page.is_relative_to(REPO_ROOT) else page
        for symbol in sorted(set(_PRIVATE_SYMBOL.findall(text))):
            if not fnmatch.filter(defined, symbol):
                problems.append(f"{shown}: names `{symbol}`, which src/repro does not define")
        for keyword in sorted(set(_KEYWORD_SYMBOL.findall(text))):
            if keyword not in defined:
                problems.append(
                    f"{shown}: names keyword `{keyword}=`, which no src/repro "
                    "function or field takes"
                )
    return problems


#: Backticked dotted references with at least two parts below the
#: package, optionally called: `repro.a.b`, `repro.a.b.c(specs)`.
_DOTTED_REFERENCE = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*){2,})(?:\([^`]*\))?`")


def resolve_dotted(name: str) -> bool:
    """Whether ``name`` imports as a module, or as attributes below one.

    Imports the longest module prefix of ``name`` that exists, then
    walks the remaining parts with ``getattr``.
    """
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            target = importlib.import_module(module_name)
        except ModuleNotFoundError as error:
            if error.name != module_name and not module_name.startswith(
                f"{error.name}."
            ):
                raise  # an existing module failed to import: not a doc problem
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def check_dotted_references(pages: list[Path] | None = None) -> list[str]:
    """Problem messages for dotted ``repro.*`` references that do not resolve.

    ``pages`` defaults to ``README.md`` plus every page under ``docs/``.
    """
    if pages is None:
        pages = doc_pages()
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        problems = []
        for page in pages:
            text = page.read_text(encoding="utf-8")
            shown = page.relative_to(REPO_ROOT) if page.is_relative_to(REPO_ROOT) else page
            for name in sorted(set(_DOTTED_REFERENCE.findall(text))):
                if not resolve_dotted(name):
                    problems.append(f"{shown}: names `{name}`, which does not resolve")
        return problems
    finally:
        sys.path.pop(0)


def check_quickstart() -> list[str]:
    """Problem messages for advertised commands that fail ``--help``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    problems = []
    for command in QUICKSTART_COMMANDS:
        shown = " ".join(command[1:]) if command[0] == sys.executable else " ".join(command)
        completed = subprocess.run(
            command, cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=120,
        )
        if completed.returncode != 0:
            detail = completed.stderr.strip().splitlines()[-1:] or ["no output"]
            problems.append(f"quickstart: `python {shown}` failed: {detail[0]}")
    return problems


def main(argv: list[str] | None = None) -> int:
    """Run the checks; print problems; return the exit status."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--run-quickstart", action="store_true",
        help="also execute the README's entry-point commands with --help",
    )
    args = parser.parse_args(argv)

    pages = doc_pages()
    problems = (
        check_links(pages)
        + check_docs_reachable()
        + check_service_api()
        + check_doc_symbols()
        + check_dotted_references(pages)
    )
    if args.run_quickstart:
        problems += check_quickstart()

    for problem in problems:
        print(problem, file=sys.stderr)
    checked = sum(len(relative_links(page)) for page in pages)
    print(f"check_docs: {len(pages)} pages, {checked} links, "
          f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Lint: every metric name the program emits is in the catalog.

``docs/observability.md``'s "What is instrumented" table is where an
operator looks up what a span, counter or event means.  This test reads
the name passed to every ``obs.span`` / ``counter`` / ``gauge`` /
``histogram`` / ``event`` (and ``obs.timed``, which records a span)
under ``src/repro/`` — from the syntax tree, so calls split over
several lines count — and fails unless the table names each one.  A
name is a string literal, or a module-level constant bound to one
(``SPAN_MOTION = "engine.step.motion"``), in the calling module or
imported from another module of the package; any other first argument
fails the lint, since no table could be checked against it.  Brace
forms in the table expand: ``sweep.{cells,runs}`` names ``sweep.cells``
and ``sweep.runs``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
CATALOG = ROOT / "docs" / "observability.md"

#: ``obs`` calls whose first argument names a metric, span or event.
NAMED_CALLS = ("span", "counter", "gauge", "histogram", "event", "timed")


def expand_braces(name: str) -> list[str]:
    """``a.{b,c}_{d,e}`` -> every combination, left to right."""
    match = re.search(r"\{([^{}]*)\}", name)
    if match is None:
        return [name]
    head, tail = name[: match.start()], name[match.end():]
    return [
        expanded
        for option in match.group(1).split(",")
        for expanded in expand_braces(head + option.strip() + tail)
    ]


def catalog_names() -> set[str]:
    """Every backticked name in the "What is instrumented" table."""
    text = CATALOG.read_text(encoding="utf-8")
    section = text.split("## What is instrumented", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    return {
        name
        for row in rows
        for quoted in re.findall(r"`([^`]+)`", row)
        for name in expand_braces(quoted)
    }


def _module_name(path: Path) -> str:
    """``src/repro/engine/batched.py`` -> ``repro.engine.batched``."""
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _string_constants(tree: ast.Module) -> dict[str, str]:
    """Module-level ``NAME = "literal"`` bindings."""
    return {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def _imported_names(
    tree: ast.Module, module: str, is_package: bool
) -> dict[str, tuple[str, str]]:
    """Module-level ``from X import NAME [as ALIAS]``: alias -> (X, NAME),
    with relative imports resolved against ``module``."""
    package = module if is_package else module.rpartition(".")[0]
    imported = {}
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom):
            continue
        base = package.rsplit(".", node.level - 1)[0] if node.level else ""
        source = ".".join(part for part in (base, node.module) if part)
        for alias in node.names:
            imported[alias.asname or alias.name] = (source, alias.name)
    return imported


def emitted_names() -> tuple[dict[str, list[str]], list[str]]:
    """Name -> the ``path:line`` sites under ``src/repro/`` that emit it,
    and the sites whose name the lint cannot resolve."""
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    constants = {_module_name(path): _string_constants(tree) for path, tree in trees.items()}
    sites: dict[str, list[str]] = {}
    unresolved: list[str] = []
    for path, tree in trees.items():
        module = _module_name(path)
        local = constants[module]
        imported = _imported_names(tree, module, path.name == "__init__.py")
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "obs"
                and node.func.attr in NAMED_CALLS
                and node.args
            ):
                continue
            site = f"{path.relative_to(ROOT).as_posix()}:{node.lineno}"
            first = node.args[0]
            name = None
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                name = first.value
            elif isinstance(first, ast.Name):
                name = local.get(first.id)
                if name is None and first.id in imported:
                    source, attribute = imported[first.id]
                    name = constants.get(source, {}).get(attribute)
            if name is None:
                unresolved.append(f"{site} ({ast.unparse(first)})")
            else:
                sites.setdefault(name, []).append(site)
    return sites, unresolved


def test_brace_expansion():
    assert expand_braces("sweep.{cells,runs}") == ["sweep.cells", "sweep.runs"]
    assert expand_braces("serve.{scenario,plan}_cache.{hits,misses}") == [
        "serve.scenario_cache.hits",
        "serve.scenario_cache.misses",
        "serve.plan_cache.hits",
        "serve.plan_cache.misses",
    ]
    assert expand_braces("campaign.cell") == ["campaign.cell"]


def test_reads_names_from_multiline_calls():
    emitted, _ = emitted_names()
    # Both are ``obs.event(`` calls whose name sits on the next line.
    assert "campaign.cell" in emitted
    assert "store.fold" in emitted


def test_resolves_names_bound_to_module_constants():
    emitted, _ = emitted_names()
    # backend.py emits its own EVENT_PROVIDER_FALLBACK; batched.py emits
    # SPAN_MOTION, which it imports from backend.py.
    assert "src/repro/engine/backend.py" in emitted["engine.provider_fallback"][0]
    assert any("engine/batched.py" in site for site in emitted["engine.step.motion"])


def test_every_emitted_name_resolves():
    _, unresolved = emitted_names()
    assert not unresolved, (
        "obs calls whose name is neither a string literal nor a module "
        "constant bound to one:\n" + "\n".join(unresolved)
    )


def test_every_eval_name_is_in_the_catalog():
    catalog = catalog_names()
    emitted, _ = emitted_names()
    missing = {name: sites for name, sites in emitted.items() if name not in catalog}
    assert not missing, (
        "names emitted under src/repro/ but missing from the "
        "'What is instrumented' table in docs/observability.md:\n"
        + "\n".join(
            f"{name} ({', '.join(sites)})" for name, sites in sorted(missing.items())
        )
    )

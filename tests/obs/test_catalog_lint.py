"""Lint: every metric name the eval layer emits is in the catalog.

``docs/observability.md``'s "What is instrumented" table is where an
operator looks up what a span, counter or event means.  This test reads
every literal name passed to ``obs.span`` / ``counter`` / ``gauge`` /
``histogram`` / ``event`` (and ``obs.timed``, which records a span)
under ``src/repro/eval/`` — from the syntax tree, so calls split over
several lines count — and fails unless the table names each one.
Brace forms in the table expand: ``sweep.{cells,runs}`` names
``sweep.cells`` and ``sweep.runs``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
EVAL = ROOT / "src" / "repro" / "eval"
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


def emitted_names() -> dict[str, list[str]]:
    """Literal name -> the ``path:line`` sites under ``eval/`` that emit it."""
    sites: dict[str, list[str]] = {}
    for path in sorted(EVAL.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "obs"
                and node.func.attr in NAMED_CALLS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                continue
            site = f"{path.relative_to(ROOT).as_posix()}:{node.lineno}"
            sites.setdefault(node.args[0].value, []).append(site)
    return sites


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
    emitted = emitted_names()
    # Both are ``obs.event(`` calls whose name sits on the next line.
    assert "campaign.cell" in emitted
    assert "store.compact" in emitted


def test_every_eval_name_is_in_the_catalog():
    catalog = catalog_names()
    missing = {
        name: sites
        for name, sites in emitted_names().items()
        if name not in catalog
    }
    assert not missing, (
        "names emitted under src/repro/eval/ but missing from the "
        "'What is instrumented' table in docs/observability.md:\n"
        + "\n".join(
            f"{name} ({', '.join(sites)})" for name, sites in sorted(missing.items())
        )
    )

"""Documentation reference checker (CI gate).

Walks the user-facing documents (README.md, EXPERIMENTS.md, docs/*.md)
and fails on dangling references:

* relative markdown links whose target file does not exist;
* backticked file paths (``src/repro/...``, ``tests/...``,
  ``scripts/...``, ``benchmark/...``, ``examples/...``, ``docs/...``,
  and bare top-level ``*.md`` / ``*.json`` names) that do not exist —
  short forms like ``pbn/axes.py`` are also tried under ``src/repro/``;
* ``tests/...::test_name`` references whose test function is gone;
* backticked module/attribute references (``repro.core.vpbn.VPbn``,
  brace forms like ``repro.transform.{materialize,twopass}``) that no
  longer resolve to a module file containing the named attribute;
* ``E<N>`` experiment references not in the ``repro.bench`` registry —
  except under EXPERIMENTS.md's "Retired system experiments" heading,
  the one table that records what the removed experiments measured and
  what took over.

Usage::

    PYTHONPATH=src python scripts/check_doc_links.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DOCUMENTS = sorted(
    [ROOT / "README.md", ROOT / "EXPERIMENTS.md", *(ROOT / "docs").glob("*.md")]
)

#: Backticked dotted names that look like modules but are not (documented
#: runtime names).
KNOWN_NON_MODULES = {
    "repro.engine",  # the Engine's logger name
}

PATH_PREFIXES = ("src/", "tests/", "docs/", "scripts/", "benchmark/", "examples/")

#: The section whose ``E<N>`` names are history, not registry references.
RETIRED_HEADING = "## Retired system experiments"

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+?)(?:#[^)]*)?\)")
BACKTICK = re.compile(r"`([^`\n]+)`")
MODULE = re.compile(r"^repro(?:\.[A-Za-z0-9_{},]+)+$")
EXPERIMENT = re.compile(r"\bE(\d+)\b")
FENCE = re.compile(r"^```.*?^```", re.M | re.S)


def _experiment_names() -> set[str]:
    from repro.bench import experiments  # noqa: F401 — registers the suite
    from repro.bench.harness import EXPERIMENTS

    return set(EXPERIMENTS)


def _expand_braces(name: str) -> list[str]:
    match = re.search(r"\{([^}]*)\}", name)
    if not match:
        return [name]
    head, tail = name[: match.start()], name[match.end() :]
    expanded = []
    for option in match.group(1).split(","):
        expanded.extend(_expand_braces(head + option.strip() + tail))
    return expanded


def _module_exists(name: str) -> bool:
    """Resolve ``repro.a.b.attr`` against src/: packages and modules must
    exist on disk; a trailing attribute must appear (as a word) in the
    module's source."""
    parts = name.split(".")
    current = SRC
    for index, part in enumerate(parts):
        if (current / part).is_dir():
            current = current / part
            continue
        if (current / f"{part}.py").is_file():
            module_file = current / f"{part}.py"
        elif (current / "__init__.py").is_file():
            module_file = current / "__init__.py"
            index -= 1  # this part is already an attribute
        else:
            return False
        attributes = parts[index + 1 :]
        if not attributes:
            return True
        text = module_file.read_text()
        return re.search(rf"\b{re.escape(attributes[0])}\b", text) is not None
    return True  # a package reference like `repro.shard`


def _path_exists(reference: str, base: Path) -> bool:
    for root in (ROOT, base, SRC / "repro"):
        if (root / reference).exists():
            return True
    return False


def _check_path(reference: str, base: Path) -> bool:
    reference = reference.rstrip("/").removesuffix("/*")
    test_name = None
    if "::" in reference:
        reference, _, test_name = reference.partition("::")
    if not _path_exists(reference, base):
        return False
    if test_name:
        for root in (ROOT, base):
            candidate = root / reference
            if candidate.is_file():
                return re.search(
                    rf"\b{re.escape(test_name)}\b", candidate.read_text()
                ) is not None
    return True


def _without_section(text: str, heading: str) -> str:
    """``text`` minus the section under ``heading`` (up to the next
    ``## `` heading)."""
    start = text.find(heading)
    if start < 0:
        return text
    end = text.find("\n## ", start)
    return text[:start] + (text[end:] if end >= 0 else "")


def _backtick_candidates(text: str):
    for match in BACKTICK.finditer(text):
        token = match.group(1).strip()
        if " " in token and not MODULE.match(token):
            continue
        yield token


def check_document(path: Path, experiments: set[str]) -> list[str]:
    text = path.read_text()
    prose = FENCE.sub("", text)  # code blocks are checked by execution
    problems: list[str] = []
    base = path.parent

    for match in MD_LINK.finditer(prose):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if not ((base / target).exists() or (ROOT / target).exists()):
            problems.append(f"dangling link: ({target})")

    for token in _backtick_candidates(prose):
        if MODULE.match(token):
            if token in KNOWN_NON_MODULES:
                continue
            for name in _expand_braces(token):
                if not _module_exists(name):
                    problems.append(f"dangling module reference: `{name}`")
            continue
        bare = token.rstrip("/").removesuffix("/*").partition("::")[0]
        if bare.startswith(PATH_PREFIXES) or (
            "/" not in bare and bare.endswith((".md", ".json"))
        ):
            if not _check_path(token, base):
                problems.append(f"dangling path reference: `{token}`")

    for match in EXPERIMENT.finditer(_without_section(prose, RETIRED_HEADING)):
        name = f"e{match.group(1)}"
        if name not in experiments:
            problems.append(f"unknown experiment reference: E{match.group(1)}")

    return problems


def main() -> int:
    experiments = _experiment_names()
    failures = 0
    for document in DOCUMENTS:
        problems = sorted(set(check_document(document, experiments)))
        relative = document.relative_to(ROOT)
        if problems:
            failures += len(problems)
            print(f"{relative}: {len(problems)} problem(s)")
            for problem in problems:
                print(f"  {problem}")
        else:
            print(f"{relative}: ok")
    if failures:
        print(f"doc-link check failed: {failures} dangling reference(s)")
        return 1
    print("doc-link check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

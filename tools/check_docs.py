"""Execute the fenced ``python`` examples in README.md and docs/*.md.

Documentation rots when its examples stop running.  This tool extracts
every fenced code block tagged ``python`` from the repository's markdown
documentation and executes it — blocks of one document run top to bottom
in a single namespace, so later examples may build on earlier ones.
Blocks tagged anything else (``console``, ``text``, …) are ignored.

Run standalone::

    python tools/check_docs.py             # all documented files
    python tools/check_docs.py README.md   # one file
    python tools/check_docs.py --examples  # docs plus examples/*.py

``--examples`` additionally executes every ``examples/*.py`` script in a
subprocess (smoke mode: the scripts are written against the small
workload configs, so each finishes in about a second; the
``REPRO_EXAMPLE_SMOKE=1`` environment variable is set for any script
that wants to shrink further).  The docs CI job runs with the flag, so
an example script that stops running fails CI alongside a rotten doc
block.

Beyond executing blocks, the tool is a **reference linter**: every
dotted ``repro.*`` name mentioned anywhere in a documented file (prose,
tables, code) must resolve to a real module or attribute.  Renaming
``repro.matching.similarity.backends`` while a doc still points at the
old path fails the check even if no executed block imports it.

The test suite runs the markdown checks through
``tests/docs/test_doc_examples.py``, so a documented example that stops
executing fails CI.
"""

from __future__ import annotations

import argparse
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: seconds before a runaway example script fails the check
EXAMPLE_TIMEOUT = 300

#: a dotted reference into the library: ``repro.x``, ``repro.x.y``, ...
DOTTED_REF = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")


def documented_files() -> list[Path]:
    """The markdown files whose python examples must execute."""
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


def example_files() -> list[Path]:
    """The runnable example scripts (``--examples``)."""
    return sorted((REPO_ROOT / "examples").glob("*.py"))


def run_example(path: Path) -> str | None:
    """Execute one example script in a subprocess; failure text or ``None``.

    Each script runs isolated (its own interpreter, ``PYTHONPATH=src``,
    ``REPRO_EXAMPLE_SMOKE=1``) so module-level state cannot leak between
    examples or into the doc checks.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.setdefault("REPRO_EXAMPLE_SMOKE", "1")
    try:
        completed = subprocess.run(
            [sys.executable, str(path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=EXAMPLE_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return f"{path.name}: timed out after {EXAMPLE_TIMEOUT}s"
    if completed.returncode != 0:
        tail = (completed.stderr or completed.stdout).strip().splitlines()
        detail = tail[-1] if tail else "no output"
        return f"{path.name}: exit {completed.returncode}: {detail}"
    return None


def extract_python_blocks(text: str) -> list[tuple[int, str]]:
    """``(first_code_line, code)`` for every fenced ``python`` block."""
    blocks: list[tuple[int, str]] = []
    lines: list[str] = []
    start = 0
    in_python = False
    in_other = False
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not in_python and not in_other and stripped.startswith("```"):
            if stripped[3:].strip() == "python":
                in_python, start, lines = True, number + 1, []
            else:
                in_other = True
        elif in_python and stripped == "```":
            blocks.append((start, "\n".join(lines)))
            in_python = False
        elif in_other and stripped == "```":
            in_other = False
        elif in_python:
            lines.append(line)
    if in_python or in_other:
        raise ValueError("unclosed fenced code block")
    return blocks


def run_document(path: Path) -> list[str]:
    """Execute one document's python blocks; the list of failures.

    All blocks share one namespace (in order), mirroring a reader who
    pastes them into a session one after another.
    """
    namespace: dict[str, object] = {"__name__": f"doccheck_{path.stem}"}
    failures: list[str] = []
    for line, code in extract_python_blocks(path.read_text(encoding="utf-8")):
        try:
            exec(compile(code, f"{path.name}:{line}", "exec"), namespace)
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            failures.append(
                f"{path.name}:{line}: {type(exc).__name__}: {exc}"
            )
    return failures


def resolve_reference(reference: str) -> bool:
    """Can ``reference`` be imported, or import-then-getattr'd?

    Tries the longest importable module prefix, then walks the remaining
    parts as attributes — so ``repro.matching.similarity.backends``
    (a module), ``repro.matching.numpy_available`` (an attribute) and
    ``repro.core.bounds.bound_counts`` (module + attribute) all resolve.
    """
    parts = reference.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj: object = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for attr in parts[split:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def lint_references(path: Path) -> list[str]:
    """Unresolvable dotted ``repro.*`` references in one document.

    Scans the whole file — prose, tables and code blocks alike — so a
    module rename breaks the docs check even where no executed example
    imports the stale path.
    """
    failures: list[str] = []
    seen: set[str] = set()
    for number, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        for reference in DOTTED_REF.findall(line):
            if reference in seen:
                continue
            seen.add(reference)
            if not resolve_reference(reference):
                failures.append(
                    f"{path.name}:{number}: unresolvable reference {reference!r}"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="execute fenced python examples in the markdown docs"
    )
    parser.add_argument(
        "files",
        nargs="*",
        help="markdown files to check (default: README.md and docs/*.md)",
    )
    parser.add_argument(
        "--examples",
        action="store_true",
        help="also execute every examples/*.py script (smoke mode)",
    )
    args = parser.parse_args(argv)

    src = REPO_ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))

    paths = (
        [Path(name).resolve() for name in args.files]
        if args.files
        else documented_files()
    )
    exit_code = 0
    for path in paths:
        blocks = extract_python_blocks(path.read_text(encoding="utf-8"))
        failures = run_document(path) + lint_references(path)
        status = "ok" if not failures else "FAILED"
        print(f"{path.name}: {len(blocks)} python block(s) {status}")
        for failure in failures:
            print(f"  {failure}")
            exit_code = 1
    if args.examples:
        for path in example_files():
            failure = run_example(path)
            print(f"{path.name}: {'ok' if failure is None else 'FAILED'}")
            if failure is not None:
                print(f"  {failure}")
                exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())

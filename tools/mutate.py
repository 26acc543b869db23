#!/usr/bin/env python
"""Mutation check: does the suite kill hand-picked wrong programs?

A green suite says the program passes its tests; it does not say the
tests would notice a wrong program.  This tool keeps a committed list
of **exact-snippet mutants** (:data:`MUTANTS`): each replaces one
snippet of one source file with a plausible mistake — an off-by-one
cut, a dropped candidate, a too-tight bound — and names the test
modules that cover that file.  For each mutant the tool copies
``src/`` to a temporary directory, applies the mutant there (the
working tree is never touched), and runs the covering modules against
the copy.  A mutant is **killed** when a test fails and **survives**
when every test passes.

Usage (from the repository root)::

    python tools/mutate.py                 # every mutant
    python tools/mutate.py topk-cut        # the named mutants only
    python tools/mutate.py --list          # names, files, covering tests

The tool prints each verdict, the kill rate and the survivors, and
exits 1 if any mutant survives.  It refuses (exit 2) a mutant whose
snippet does not occur exactly once in its file — the list has gone
stale and must be updated with the code — a test run that ends in
anything but pass or fail (a collection error kills nothing), and a
tree whose covering tests already fail without any mutant (then every
mutant would look killed).  Test runs use the derandomised ``ci``
hypothesis profile, so verdicts repeat run to run.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _refuse(message: str) -> None:
    print(f"mutate: {message}", file=sys.stderr)
    raise SystemExit(2)


@dataclass(frozen=True)
class Mutant:
    """One exact-snippet replacement and the tests that must catch it."""

    name: str
    path: str  # relative to src/
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # test modules, relative to the repository root
    why: str


MUTANTS = (
    Mutant(
        name="topk-cut",
        path="repro/matching/topk.py",
        snippet="matrix.candidate_order[i][: self.candidates_per_element]",
        replacement=(
            "matrix.candidate_order[i][: self.candidates_per_element + 1]"
        ),
        tests=(
            "tests/properties/test_prop_completeness.py",
            "tests/matching/test_matchers.py",
        ),
        why="top-k keeps one candidate too many per element",
    ),
    Mutant(
        name="restricted-row-filter",
        path="repro/matching/engine.py",
        snippet="valid = {j for j in allowed[i] if 0 <= j < m}",
        replacement="valid = {j for j in allowed[i] if 0 < j < m}",
        tests=(
            "tests/properties/test_prop_engine.py",
            "tests/properties/test_prop_completeness.py",
            "tests/matching/test_engine.py",
        ),
        why="a restricted search drops target 0 from every allowed list",
    ),
    Mutant(
        name="clustering-too-few-targets",
        path="repro/matching/clustering.py",
        snippet="if len(in_schema) < len(query):",
        replacement="if len(in_schema) <= len(query):",
        tests=(
            "tests/properties/test_prop_completeness.py",
            "tests/matching/test_matchers.py",
        ),
        why="clustering skips a schema whose nominated elements just fit",
    ),
    Mutant(
        name="static-trim-limit",
        path="repro/matching/engine.py",
        snippet="limit = cutoff + _TRIM_SLACK",
        replacement="limit = cutoff + _TRIM_SLACK - 0.02",
        tests=(
            "tests/properties/test_prop_substrate.py",
            "tests/properties/test_prop_engine.py",
            "tests/matching/test_substrate.py",
        ),
        why="the static trim drops candidates that still fit the threshold",
    ),
    Mutant(
        name="batched-gather-padding",
        path="repro/matching/similarity/kernel.py",
        snippet="gathered[padding] = np.inf",
        replacement="gathered[padding] = 0.0",
        tests=(
            "tests/properties/test_prop_numpy.py",
            "tests/matching/test_numpy_edge_cases.py",
            "tests/matching/test_kernel.py",
        ),
        why="the batched gather ranks padding lanes before real costs, so "
        "a narrow schema's candidate order names targets it lacks "
        "(numpy only: without it this line never runs)",
    ),
    Mutant(
        name="spec-gather-tie-break",
        path="repro/matching/similarity/kernel.py",
        snippet=(
            "order = tuple(j for _, j in sorted(zip(costs, range(len(costs)))))"
        ),
        replacement=(
            "order = tuple(j for _, j in sorted("
            "zip(costs, range(len(costs))), key=lambda p: (p[0], -p[1])))"
        ),
        tests=(
            "tests/properties/test_prop_numpy.py",
            "tests/matching/test_numpy_edge_cases.py",
            "tests/matching/test_kernel.py",
        ),
        why="the python gather breaks cost ties by descending target id, "
        "not the (cost, id) order",
    ),
    Mutant(
        name="answers-size-at-exclusive",
        path="repro/core/answers.py",
        snippet="return bisect.bisect_right(self._scores, delta)",
        replacement="return bisect.bisect_left(self._scores, delta)",
        tests=(
            "tests/core/test_answers.py",
            "tests/properties/test_prop_answers.py",
        ),
        why="|A^δ| leaves out the answers scored exactly δ",
    ),
    Mutant(
        name="worst-case-floor",
        path="repro/core/bounds.py",
        snippet="return max(0, improved_answers - incorrect)",
        replacement="return max(1, improved_answers - incorrect)",
        tests=(
            "tests/core/test_bounds.py",
            "tests/properties/test_prop_bounds.py",
        ),
        why="the worst case credits S2 with a correct answer it may lack",
    ),
    Mutant(
        name="incremental-best-not-summed",
        path="repro/core/incremental.py",
        snippet="best_total += best_case_correct(inc1.correct, inc2_size)",
        replacement="best_total = best_case_correct(inc1.correct, inc2_size)",
        tests=(
            "tests/core/test_incremental.py",
            "tests/properties/test_prop_bounds.py",
        ),
        why="the incremental best case keeps only the last increment's "
        "count instead of summing them (the algorithm's step 4)",
    ),
)


def mutated(mutant: Mutant, src: Path) -> str:
    """``mutant``'s file under ``src`` with the mutant applied.

    Refuses a snippet that does not occur exactly once.
    """
    text = (src / mutant.path).read_text()
    count = text.count(mutant.snippet)
    if count != 1:
        _refuse(
            f"mutant {mutant.name!r}: snippet occurs {count} times in "
            f"src/{mutant.path} (must be exactly once): {mutant.snippet!r}"
        )
    return text.replace(mutant.snippet, mutant.replacement)


def passes(modules: tuple[str, ...], mutant: Mutant | None = None) -> bool:
    """Whether ``modules`` pass against a copy of ``src/``.

    The copy carries ``mutant`` when one is given.  A run that ends in
    anything but pass or fail — a collection error, say — is refused.
    """
    with tempfile.TemporaryDirectory(prefix="mutant-") as workdir:
        src = Path(workdir) / "src"
        shutil.copytree(
            ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__")
        )
        if mutant is not None:
            (src / mutant.path).write_text(mutated(mutant, src))
        env = dict(os.environ, PYTHONPATH=str(src), HYPOTHESIS_PROFILE="ci")
        # run from the temporary directory, so pytest's and hypothesis's
        # caches land there and not in the working tree
        completed = subprocess.run(
            [
                sys.executable, "-m", "pytest", "-x", "-q",
                "-p", "no:cacheprovider",
                *(str(ROOT / module) for module in modules),
            ],
            cwd=workdir,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
    if completed.returncode not in (0, 1) or (
        "during collection" in completed.stdout
    ):
        print(completed.stdout[-4000:])
        _refuse(
            f"pytest ended with exit code {completed.returncode} and no "
            f"verdict ({mutant.name if mutant else 'unmutated copy'})"
        )
    return completed.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument(
        "--list", action="store_true", help="list the mutants and exit"
    )
    args = parser.parse_args(argv)
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or list(MUTANTS)
    if args.list:
        for mutant in chosen:
            print(f"{mutant.name}: src/{mutant.path} — {mutant.why}")
            for module in mutant.tests:
                print(f"    {module}")
        return 0
    for mutant in chosen:  # refuse a stale list before running anything
        mutated(mutant, ROOT / "src")
    # a kill only means something when the same tests pass unmutated
    covering = tuple(sorted({m for mutant in chosen for m in mutant.tests}))
    if not passes(covering):
        _refuse("the covering tests fail on the unmutated source")
    survivors = []
    for mutant in chosen:
        killed = not passes(mutant.tests, mutant)
        print(f"{'killed  ' if killed else 'SURVIVED'} {mutant.name}: {mutant.why}")
        if not killed:
            survivors.append(mutant.name)
    killed_count = len(chosen) - len(survivors)
    print(
        f"kill rate {killed_count}/{len(chosen)} "
        f"({killed_count / len(chosen):.0%})"
    )
    if survivors:
        print("survivors: " + ", ".join(survivors))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

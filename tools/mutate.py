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
    python tools/mutate.py --path repro/matching/engine.py
                                           # one source file's mutants
                                           # (repeat --path for more)
    python tools/mutate.py --list          # names, files, covering tests

A change to a source file runs at least that file's mutants
(``--path``, relative to ``src/``; a leading ``src/`` is accepted; give
it once per file).

The tool prints each verdict, the kill rate and the survivors, and
exits 1 if any mutant survives.  It refuses (exit 2) a mutant whose
snippet does not occur exactly once in its file — the list has gone
stale and must be updated with the code — a test run that ends in
anything but pass or fail (a collection error kills nothing), and a
tree whose covering tests already fail without any mutant (then every
mutant would look killed).  Test runs use the ``mutate`` hypothesis
profile (``tests/conftest.py``): the derandomised ``ci`` profile, so
verdicts repeat run to run, without the explain phase, which only
annotates a failure and once took most of a mutant run.
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
        snippet="cap=self.candidates_per_element",
        replacement="cap=self.candidates_per_element + 1",
        tests=(
            "tests/properties/test_prop_completeness.py",
            "tests/matching/test_matchers.py",
        ),
        why="top-k keeps one candidate too many per element",
    ),
    Mutant(
        name="restricted-row-filter",
        path="repro/matching/engine.py",
        snippet="kept = [j for j in order if j in members]",
        replacement="kept = [j for j in order if j and j in members]",
        tests=(
            "tests/properties/test_prop_engine.py",
            "tests/properties/test_prop_completeness.py",
            "tests/matching/test_engine.py",
        ),
        why="a restricted search drops target 0 from every allowed list",
    ),
    Mutant(
        name="restricted-filter-membership",
        path="repro/matching/engine.py",
        snippet="kept = [j for j in order if j in members]",
        replacement="kept = [j for j in order if j not in members]",
        tests=(
            "tests/properties/test_prop_engine.py",
            "tests/properties/test_prop_completeness.py",
            "tests/matching/test_engine.py",
        ),
        why="a restricted search keeps the targets outside each allowed "
        "set instead of those inside",
    ),
    Mutant(
        name="leaf-structure-term-index",
        path="repro/matching/engine.py",
        snippet="+ terms[{violations}]",
        replacement="+ terms[V]",
        tests=(
            "tests/properties/test_prop_engine.py",
            "tests/matching/test_engine.py",
        ),
        why="a complete assignment is scored with the violations its chunk "
        "was handed, not with those of its own edges",
    ),
    Mutant(
        name="leaf-violation-skip",
        path="repro/matching/engine.py",
        snippet="if B + ss > cutoff: continue  # later targets may fit",
        replacement="if B + ss > cutoff: break",
        tests=(
            "tests/properties/test_prop_engine.py",
            "tests/matching/test_engine.py",
        ),
        why="a target pushed over the threshold by its edge violation ends "
        "its row, so later targets that keep the edge are lost",
    ),
    Mutant(
        name="early-exit-comparison",
        path="repro/matching/engine.py",
        snippet="return share * total_min_cost > delta_max + _EPSILON",
        replacement="return share * total_min_cost >= delta_max",
        tests=(
            "tests/properties/test_prop_engine.py",
            "tests/matching/test_engine.py",
        ),
        why="a search whose cheapest mapping scores exactly δ is settled "
        "as empty",
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
        name="chunk-boundary-cost",
        path="repro/matching/engine.py",
        snippet='f"S{depth}, {violations})"',
        replacement='f"{cost}, {violations})"',
        tests=("tests/matching/test_engine.py",),
        why="a query deeper than one generated chunk hands the next chunk "
        "its prefix's cost sum without the boundary depth's target",
    ),
    Mutant(
        name="round-guard-band",
        path="repro/matching/objective.py",
        snippet="_HALF_CLEAR = 0.5 - 2.0**-20",
        replacement="_HALF_CLEAR = 0.5",
        tests=("tests/matching/test_objective.py",),
        why="fast score rounding takes a scaled score that sits on a half, "
        "where the scaling error can turn the rounding the wrong way",
    ),
    Mutant(
        name="round-guard-zero",
        path="repro/matching/objective.py",
        snippet='f"if 0.0 < y < {',
        replacement='f"if 0.0 <= y < {',
        tests=("tests/matching/test_objective.py",),
        why="fast score rounding takes -0.0 and returns +0.0",
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
    Mutant(
        name="beam-width-plus-one",
        path="repro/matching/engine.py",
        snippet="expansions[:beam_width]",
        replacement="expansions[: beam_width + 1]",
        tests=(
            "tests/matching/test_engine.py",
            "tests/matching/test_matchers.py",
        ),
        why="the beam keeps one partial mapping too many per level",
    ),
    Mutant(
        name="hybrid-too-few-targets",
        path="repro/matching/hybrid.py",
        snippet="if len(in_schema) < len(query):",
        replacement="if len(in_schema) <= len(query):",
        tests=("tests/matching/test_hybrid.py",),
        why="the hybrid skips a schema whose nominated elements just fit",
    ),
    Mutant(
        name="assemble-no-capacity-check",
        path="repro/matching/base.py",
        snippet="self.check_capacity(total, delta_max)",
        replacement="pass",
        tests=(
            "tests/matching/test_matchers.py",
            "tests/matching/test_pipeline.py",
        ),
        why="batch_match never enforces max_answers",
    ),
    # -- the name-similarity primitives (util/text.py) -----------------------
    Mutant(
        name="jaro-window-end",
        path="repro/util/text.py",
        snippet="hi = i + window\n",
        replacement="hi = i + window + 1\n",
        tests=(
            "tests/properties/test_prop_text.py",
            "tests/matching/test_similarity_name.py",
        ),
        why="the Jaro match window reaches one position too far in b",
    ),
    Mutant(
        name="jaro-first-unmatched-break",
        path="repro/util/text.py",
        snippet="b_spots.append(j)\n                break",
        replacement="b_spots.append(j)",
        tests=(
            "tests/properties/test_prop_text.py",
            "tests/matching/test_similarity_name.py",
        ),
        why="a character of a matches every unmatched equal character in "
        "its window, not just the first",
    ),
    Mutant(
        name="dice-overlap-max",
        path="repro/util/text.py",
        snippet="overlap += min(profile_a[element], profile_b[element])",
        replacement="overlap += max(profile_a[element], profile_b[element])",
        tests=(
            "tests/properties/test_prop_text.py",
            "tests/matching/test_similarity_name.py",
        ),
        why="the Dice overlap counts a shared gram's larger count",
    ),
    Mutant(
        name="jaro-transpositions-unhalved",
        path="repro/util/text.py",
        snippet="transpositions //= 2",
        replacement="transpositions //= 1",
        tests=(
            "tests/properties/test_prop_text.py",
            "tests/matching/test_similarity_name.py",
        ),
        why="Jaro counts each out-of-order matched pair as two "
        "transpositions",
    ),
    # -- the column answer set (core/answers.py) -----------------------------
    Mutant(
        name="column-tie-order",
        path="repro/core/answers.py",
        snippet="built.sort(key=_BY_SCORE)",
        replacement="built.reverse(); built.sort(key=_BY_SCORE)",
        tests=(
            "tests/properties/test_prop_columns.py",
            "tests/matching/test_matchers.py",
        ),
        why="a column set's materialised answers flip score ties out of "
        "construction order",
    ),
    Mutant(
        name="score-check-keys-only",
        path="repro/core/answers.py",
        snippet="mine.items() <= theirs.items()",
        replacement="mine.keys() <= theirs.keys()",
        tests=(
            "tests/properties/test_prop_columns.py",
            "tests/evaluation/test_validation.py",
        ),
        why="the column score check compares items but not their scores, "
        "so a re-scored improvement passes",
    ),
    Mutant(
        name="group-duplicate-check",
        path="repro/core/answers.py",
        snippet="if len(members) != len(results):",
        replacement="if False:",
        tests=(
            "tests/properties/test_prop_columns.py",
            "tests/core/test_answers.py",
        ),
        why="a pair result that repeats target ids collapses into one "
        "answer instead of raising",
    ),
    Mutant(
        name="pooled-repeated-group",
        path="repro/core/answers.py",
        snippet="repeated = groups.keys() & member._groups.keys()",
        replacement="repeated = ()",
        tests=(
            "tests/properties/test_prop_columns.py",
            "tests/properties/test_prop_answers.py",
        ),
        why="disjoint_union pools two answer sets holding the same "
        "(query, schema) group, keeping one and counting both",
    ),
    # -- the paper's edge conventions (tests/core/test_conventions.py) -------
    Mutant(
        name="random-point-empty-s2",
        path="repro/core/incremental.py",
        snippet="precision = self.original.precision_or(Fraction(1))",
        replacement="precision = Fraction(1)",
        tests=(
            "tests/core/test_conventions.py",
            "tests/core/test_incremental.py",
        ),
        why="with no S2 answers the random system's precision is a vacuous "
        "1, not S1's mix (Eq. 9)",
    ),
    Mutant(
        name="recall-empty-truth",
        path="repro/core/incremental.py",
        snippet="if relevant == 0:\n            return Fraction(1)",
        replacement="if relevant == 0:\n            return Fraction(0)",
        tests=(
            "tests/core/test_conventions.py",
            "tests/core/test_incremental.py",
        ),
        why="bound recall against an empty ground truth reads 0, not the "
        "trivial 1 (section 2.2)",
    ),
    Mutant(
        name="size-ratio-empty-s1",
        path="repro/core/incremental.py",
        snippet=(
            "if self.original.answers == 0:\n            return Fraction(0)"
        ),
        replacement=(
            "if self.original.answers == 0:\n            return Fraction(1)"
        ),
        tests=(
            "tests/core/test_conventions.py",
            "tests/core/test_incremental.py",
        ),
        why="the size ratio of an empty S1 reads 1, not 0 (section 3.3)",
    ),
    Mutant(
        name="case-size-ratio-empty-s1",
        path="repro/core/bounds.py",
        snippet=(
            "if self.original.answers == 0:\n            return Fraction(0)"
        ),
        replacement=(
            "if self.original.answers == 0:\n            return Fraction(1)"
        ),
        tests=(
            "tests/core/test_conventions.py",
            "tests/core/test_bounds.py",
        ),
        why="the per-threshold case bounds give an empty S1 a size ratio "
        "of 1, not 0 (section 3.3)",
    ),
    Mutant(
        name="relative-best-precision-empty",
        path="repro/core/relative.py",
        snippet="best_precision=entry.best.precision_or(Fraction(1)),",
        replacement="best_precision=entry.best.precision_or(Fraction(0)),",
        tests=(
            "tests/core/test_conventions.py",
            "tests/core/test_relative.py",
        ),
        why="relative bounds give an empty S2 a best precision of 0, not "
        "the vacuous 1 (Eqs. 1/4)",
    ),
    Mutant(
        name="default-cutoffs-one-answer",
        path="repro/core/topn.py",
        snippet="if total > 0:",
        replacement="if total > 1:",
        tests=(
            "tests/core/test_conventions.py",
            "tests/core/test_topn.py",
        ),
        why="the top-N ladder of a one-answer set is empty",
    ),
    Mutant(
        name="increments-relevant-index",
        path="repro/core/increments.py",
        snippet="previous = Counts(0, 0, counts[0].relevant)",
        replacement="previous = Counts(0, 0, counts[1].relevant)",
        tests=(
            "tests/core/test_conventions.py",
            "tests/core/test_increments.py",
        ),
        why="|H| is read from the second threshold, which a one-threshold "
        "profile lacks (section 3.2, step 2)",
    ),
    Mutant(
        name="combine-empty-precision",
        path="repro/core/increments.py",
        snippet="if a_high == 0:\n        return r_high, Fraction(1)",
        replacement="if a_high == 0:\n        return r_high, Fraction(0)",
        tests=(
            "tests/core/test_conventions.py",
            "tests/core/test_increments.py",
        ),
        why="recombining into an empty answer set gives precision 0, not "
        "the vacuous 1 (Eqs. 7/8)",
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
        env = dict(
            os.environ, PYTHONPATH=str(src), HYPOTHESIS_PROFILE="mutate"
        )
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
        "--path",
        action="append",
        help="run only the mutants of this source file (relative to src/); "
        "repeatable",
    )
    parser.add_argument(
        "--list", action="store_true", help="list the mutants and exit"
    )
    args = parser.parse_args(argv)
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or list(MUTANTS)
    if args.path is not None:
        paths = [path.removeprefix("src/") for path in args.path]
        for path in paths:
            if not any(mutant.path == path for mutant in chosen):
                parser.error(f"no mutants in src/{path}")
        chosen = [mutant for mutant in chosen if mutant.path in paths]
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

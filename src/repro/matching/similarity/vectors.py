"""The optional numpy execution layer.

The scoring stack's remaining per-expansion work around the cost kernel
is pure-python arithmetic: gathering kernel rows into matrices, sorting
candidate orders, accumulating suffix-sum admissible bounds.  This
module provides vectorised forms of those primitives.  Every caller
keeps its pure-python loop beside the vector form as the **executable
specification**: it is the only path when numpy is absent, and the
tests diff the two (``tests/helpers/oracles.py`` hides numpy in-process
by setting ``vectors._np`` to ``None``).

Byte-identity discipline
------------------------
Every helper here is bit-equal to its python spec, by construction, not
by accident:

* **Gathers** are fancy indexing — pure copies of the same doubles.
* **Candidate orders** use stable argsort (ties keep ascending position,
  which for rows indexed by target id *is* the engine's ``(cost, id)``
  tie-break) or :func:`numpy.lexsort` where candidate ids arrive
  unsorted.
* **Suffix sums** run :func:`numpy.cumsum` over the reversed minima with
  a prepended ``0.0`` — ``cumsum`` is a strict sequential left fold, so
  every partial sum is the identical float chain of the spec loop in
  :func:`~repro.matching.similarity.matrix.suffix_cost_sums`.
* Results are converted back to python floats/ints (``tolist`` is
  value-exact for float64), so everything downstream — the search loop,
  answer sets, serialized snapshots — holds the same objects it would
  have held on the spec path.

The helpers assume finite costs; the kernel/matrix layer guarantees it
(objective costs live in [0, 1]) and a regression test pins it down,
because NaN would order differently under numpy's sort than python's.

Optional dependency
-------------------
numpy is **optional**.  When it cannot be imported — or when the
environment variable ``REPRO_NO_NUMPY=1`` forces the import to be
skipped, which is how CI exercises the numpy-absent configuration
without a second container image — :func:`numpy_available` is false and
every caller runs its spec path.  That one check is the whole dispatch.
"""

from __future__ import annotations

import os
from collections.abc import Iterator, Sequence
from contextlib import contextmanager

__all__ = [
    "numpy_available",
    "stable_order",
    "suffix_sums",
    "vector_thresholds",
]

if os.environ.get("REPRO_NO_NUMPY") == "1":  # the forced-absent CI mode
    _np = None
else:
    try:
        import numpy as _np
    except ImportError:  # pragma: no cover - exercised via REPRO_NO_NUMPY
        _np = None

#: adaptive dispatch floors: per-call vector forms only run at or above
#: these sizes (elements for 1-D ops, total elements for 2-D ops) —
#: below them, numpy's call overhead loses to the tiny python loop it
#: replaces.  Both forms are bit-identical, so the crossover is purely a
#: speed choice; the *batched* kernel gather has no floor because it
#: amortises one dispatch over the whole repository.  Tests force the
#: floors to 0 via :func:`vector_thresholds` so every vector form is
#: exercised on small workloads too.
VECTOR_MIN = 64
VECTOR_MIN_AREA = 1024


@contextmanager
def vector_thresholds(
    min_elements: int = 0, min_area: int = 0
) -> Iterator[None]:
    """Temporarily override the adaptive dispatch floors.

    The property suite runs its toggle combinations under
    ``vector_thresholds(0, 0)`` so the vector forms execute even on
    hypothesis-sized inputs; benchmarks may raise them to isolate a
    regime.  Restores the previous floors on exit.
    """
    global VECTOR_MIN, VECTOR_MIN_AREA
    previous = (VECTOR_MIN, VECTOR_MIN_AREA)
    VECTOR_MIN, VECTOR_MIN_AREA = min_elements, min_area
    try:
        yield
    finally:
        VECTOR_MIN, VECTOR_MIN_AREA = previous


def numpy_available() -> bool:
    """Whether numpy imported at all (``REPRO_NO_NUMPY=1`` forces false)."""
    return _np is not None


# ---------------------------------------------------------------------------
# Vector primitives (call only when ``numpy_available()``)
# ---------------------------------------------------------------------------

def stable_order(values) -> "object":
    """Indices sorting ``values`` ascending, ties by ascending index.

    For a cost row indexed by target id this is exactly the engine's
    ``(cost, id)`` candidate order: stable argsort keeps equal costs in
    input (= id) order.  Accepts any sequence or ndarray; returns an
    ndarray of indices.
    """
    return _np.argsort(_np.asarray(values, dtype=_np.float64), kind="stable")


def suffix_sums(row_minima: Sequence[float]) -> tuple[float, ...]:
    """The vector form of the suffix-sum accumulation.

    Bit-identical to the spec loop in
    :func:`~repro.matching.similarity.matrix.suffix_cost_sums`:
    ``cumsum`` is a strict sequential fold, and prepending ``0.0``
    reproduces the spec's ``out[n-1] = 0.0 + row_minima[n-1]`` first
    step, so every partial sum is the same float chain.  Returns length
    ``len(row_minima) + 1`` with the trailing ``0.0``, like the spec.
    """
    reversed_with_zero = _np.empty(len(row_minima) + 1, dtype=_np.float64)
    reversed_with_zero[0] = 0.0
    reversed_with_zero[1:] = _np.asarray(row_minima, dtype=_np.float64)[::-1]
    return tuple(_np.cumsum(reversed_with_zero)[::-1].tolist())

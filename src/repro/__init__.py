"""repro — reproduction of "Effectiveness Bounds for Non-Exhaustive
Schema Matching Systems" (Smiljanić, van Keulen, Jonker; ICDE 2006).

The library has four layers:

* :mod:`repro.core` — the paper's contribution: guaranteed best/worst
  (and random-baseline) precision/recall bounds for a non-exhaustive
  improvement of a retrieval system, computed from answer-set sizes
  alone.  Domain-independent: items may be schema mappings, documents,
  images, anything hashable.
* :mod:`repro.schema` — XML-schema substrate: tree schemas, a textual
  format, domain vocabularies, and a synthetic repository generator with
  concept provenance.
* :mod:`repro.matching` — matching systems: the exhaustive original and
  four non-exhaustive improvements (beam, clustering, top-k, and their
  hybrid) sharing one objective function, plus the sharded parallel
  matching pipeline.
* :mod:`repro.evaluation` — oracle ground truth, judges, scenarios,
  pooling, and end-to-end bounds validation.

Quick start::

    from repro import quickstart_band
    band = quickstart_band()
    print(float(band.guaranteed_recall_at_precision(0.5)))

or see ``examples/quickstart.py`` for the full walk-through.
"""

from repro.core import (
    AnswerSet,
    Counts,
    EffectivenessBand,
    PRCurve,
    SizeProfile,
    SystemProfile,
    ThresholdSchedule,
    compute_incremental_bounds,
    compute_naive_bounds,
)
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "AnswerSet",
    "Counts",
    "EffectivenessBand",
    "PRCurve",
    "ReproError",
    "SizeProfile",
    "SystemProfile",
    "ThresholdSchedule",
    "compute_incremental_bounds",
    "compute_naive_bounds",
    "quickstart_band",
    "__version__",
]


def quickstart_band() -> EffectivenessBand:
    """One-call demo: bounds for a beam improvement on a small workload."""
    from repro.evaluation import (
        build_workload,
        run_system,
        small_config,
        validate_improvement,
    )
    from repro.matching import BeamMatcher, ExhaustiveMatcher

    workload = build_workload(small_config())
    original = run_system(
        ExhaustiveMatcher(workload.objective), workload.suite, workload.schedule
    )
    improved = run_system(
        BeamMatcher(workload.objective, beam_width=10),
        workload.suite,
        workload.schedule,
    )
    return validate_improvement(original, improved).band

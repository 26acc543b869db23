"""Exception hierarchy for the ``repro`` library.

Every error raised intentionally by this package derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting genuine bugs (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SchemaError(ReproError):
    """A schema tree is malformed (duplicate ids, cycles, bad labels...)."""


class SchemaParseError(SchemaError):
    """The textual schema format could not be parsed.

    Attributes
    ----------
    line:
        1-based line number at which parsing failed, or ``None`` when the
        failure is not attributable to a single line.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SnapshotError(ReproError):
    """A persisted snapshot is unusable (corrupt, foreign, or stale).

    Raised by the snapshot store (:mod:`repro.schema.store`,
    :mod:`repro.matching.similarity.persist`) whenever loading would
    yield state that does not provably match what was saved: truncated
    or tampered payloads, unsupported format versions, digest-addressed
    files whose content hashes elsewhere, or fingerprints recorded for a
    differently configured matcher/objective.  Loading **never** falls
    back to a silent cold start — wrong warm state must be impossible,
    so every mismatch is loud.
    """


class MatchingError(ReproError):
    """A matcher was configured or invoked incorrectly."""


class TransportError(ReproError):
    """A distributed-worker transport failed or delivered unusable bytes.

    Raised by the socket worker protocol (:mod:`repro.matching.remote`)
    whenever a frame cannot be trusted or a peer is gone: truncated
    streams (EOF mid-frame), frames whose payload bytes do not hash to
    the digest in their header (tampering, bit rot, a desynchronised
    stream), oversized or foreign frames, protocol-version mismatches,
    and workers that died with units still outstanding.  Liveness
    failures surface here too: a remote op that exceeds its
    :class:`~repro.matching.remote.DeadlineBudget` deadline (the hung
    peer is treated as crashed), and a fan-out whose every worker sits
    behind an open circuit breaker (every address failed recently and
    is still cooling down).  The transport **never** degrades a damaged
    frame into an answer: a served result either round-tripped
    digest-verified or this error is raised.
    """


class ReplicationError(ReproError):
    """A replica cannot serve or advance consistently with the delta log.

    Raised by :class:`~repro.matching.replication.ReplicaGroup` when a
    replica falls behind the replicated delta log (a sequence gap or a
    failed delivery means its repository version is stale, so serving
    would break the byte-identity guarantee — it refuses until
    ``catch_up()`` replays what it missed), when every replica is
    behind, or when a replica's repository digest diverges from the
    log's authoritative digest for that sequence — the replica is then
    marked diverged and refuses every read, record and catch-up until
    it is replaced (``leave()``, then ``join()``).
    """


class ObjectiveMismatchError(MatchingError):
    """Two systems that must share an objective function do not.

    The bounds technique of the paper is only sound when the improved
    system ranks answers with the *same* objective function as the original
    system (paper section 2.3).  This error signals a violated precondition.
    """


class AnswerSetError(ReproError):
    """An answer set violates its invariants (e.g. subset property)."""


class NotASubsetError(AnswerSetError):
    """The improved system produced answers outside the original answer set.

    The paper's analysis assumes ``A2 ⊆ A1`` for every threshold; when the
    assumption is violated the bounds are meaningless, so the library
    refuses to compute them.
    """


class BoundsError(ReproError):
    """Effectiveness-bound computation received inconsistent inputs."""


class ThresholdError(BoundsError):
    """A threshold schedule is not strictly increasing or is empty."""


class CurveError(ReproError):
    """A P/R curve is malformed (non-monotone recall, out-of-range values...)."""


class GroundTruthError(ReproError):
    """Ground-truth construction or lookup failed."""


class ExperimentError(ReproError):
    """An experiment harness failure (unknown figure id, bad config...)."""

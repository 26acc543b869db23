"""Schema mappings: the elements of the search space (paper section 2.1).

"A schema mapping maps each element of a user-defined schema onto one
element in the repository."  Here a :class:`Mapping` assigns every
element of the personal (query) schema to a distinct element of a single
repository schema — the personal-schema-querying setting of the authors'
DEXA'05 formalisation, where a query is answered from one source schema
at a time.

Mappings are hashable values; their identity is the pair (query schema
id, tuple of target element keys), which is what makes answer sets of
different systems comparable (the subset property checks).  A mapping
stores only (query id, repository schema, target ids) and its hash,
computed once at construction; the element handles of :attr:`Mapping
.targets` are built on first use.  Mappings have no order of their own:
an answer set orders them by score, and within a score tie by
construction order — repository order, then search order, for one
query; query order first when ``AnswerSet.disjoint_union`` pools a
suite (see :mod:`repro.core.answers`).
"""

from __future__ import annotations

from functools import partial

from repro.errors import MatchingError
from repro.schema.model import Schema
from repro.schema.repository import ElementHandle

__all__ = ["Mapping", "canonical_answers"]


def canonical_answers(answer_sets) -> list[list[tuple]]:
    """Canonical, comparable form of per-query mapping answer sets.

    ``[(mapping key, score), ...]`` per answer set, in score order —
    items, scores *and* ranking, the strongest equality the
    :class:`~repro.core.answers.AnswerSet` type offers.  This is the
    **single** definition of "byte-identical answers": the CLI's
    ``serve --verify`` and the benchmark contracts all compare through
    it, so they cannot silently drift apart in strength.  (The property
    test suites keep deliberately independent local copies — a test
    should not trust the library's own comparator.)
    """
    return [
        [(answer.item.key, answer.score) for answer in answers.answers()]
        for answers in answer_sets
    ]


class Mapping:
    """An assignment of all query elements to elements of one repo schema.

    ``targets[i]`` is the image of the query element with pre-order id
    ``i``.  All targets live in the same repository schema and are
    pairwise distinct (injectivity), both enforced at construction.
    Mappings are immutable: assigning an attribute raises.
    """

    __slots__ = ("query_schema_id", "target_schema", "target_ids", "_hash", "_targets")

    query_schema_id: str
    target_schema: Schema
    target_ids: tuple[int, ...]

    def __init__(
        self, query_schema_id: str, targets: tuple[ElementHandle, ...]
    ) -> None:
        targets = tuple(targets)
        if not targets:
            raise MatchingError("a mapping needs at least one target")
        first = targets[0].schema
        if any(t.schema is not first for t in targets):
            # distinct objects may still be the same schema id; only then
            # build the full id set for the error message
            schema_ids = {t.schema.schema_id for t in targets}
            if len(schema_ids) != 1:
                raise MatchingError(
                    f"mapping spans repository schemas {sorted(schema_ids)}; "
                    "a mapping must stay within one schema"
                )
        ids = tuple(t.element_id for t in targets)
        if len(set(ids)) != len(ids):
            raise MatchingError(
                "mapping assigns two query elements to the same target "
                f"(element ids {list(ids)})"
            )
        _init(self, query_schema_id, first, ids, targets)

    @classmethod
    def _from_search(
        cls, query_schema_id: str, schema: Schema, target_ids: tuple[int, ...]
    ) -> "Mapping":
        """Construct without re-validating — for engine-produced output.

        The branch-and-bound guarantees single-schema injective
        assignments (``used`` excludes every assigned target), so the
        answer sets :meth:`~repro.matching.base.Matcher.assemble` builds
        — which turn tens of thousands of search results into mappings
        when a caller reads them — skip the constructor's checks and
        build no element handle.  Every other producer goes through
        ``Mapping(...)`` and keeps them.
        """
        mapping = object.__new__(cls)
        _init(mapping, query_schema_id, schema, target_ids, None)
        return mapping

    @classmethod
    def _group(
        cls, query_schema_id: str, schema: Schema
    ) -> tuple[tuple[str, str], partial]:
        """One (query, repository schema) group of a column answer set.

        Its key, ``(query id, schema id)``, and its item maker:
        ``make(target_ids)`` is the mapping, built without re-validating
        (:meth:`_from_search`).  :meth:`~repro.matching.base.Matcher
        .assemble` files each non-empty pair result under one group;
        :meth:`_locate` reads the same key layout back.
        """
        return (query_schema_id, schema.schema_id), partial(
            cls._from_search, query_schema_id, schema
        )

    @staticmethod
    def _locate(item: object) -> tuple[tuple[str, str], tuple[int, ...]] | None:
        """Where a column answer set files ``item``, or ``None``.

        The inverse of :meth:`_group`'s filing, for the judged counts
        (``SystemProfile.from_answer_set``): the mapping's group key and
        its target ids.  Anything but a mapping is in no group.
        """
        if not isinstance(item, Mapping):
            return None
        return (
            (item.query_schema_id, item.target_schema.schema_id),
            item.target_ids,
        )

    @property
    def targets(self) -> tuple[ElementHandle, ...]:
        """The target element handles (built on first use)."""
        targets = self._targets
        if targets is None:
            schema = self.target_schema
            targets = tuple(ElementHandle(schema, i) for i in self.target_ids)
            _set_targets(self, targets)
        return targets

    @property
    def key(self) -> tuple:
        """Hashable identity used across systems."""
        return (self.query_schema_id, self.target_schema.schema_id, self.target_ids)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.target_ids == other.target_ids
            and self.query_schema_id == other.query_schema_id
            and self.target_schema.schema_id == other.target_schema.schema_id
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: Mapping is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}: Mapping is immutable")

    def __reduce__(self):
        # Rebuild through the validating constructor: the receiving
        # process hashes the key afresh (string hashes are salted per
        # process, so a shipped hash would be stale there).
        return (Mapping, (self.query_schema_id, self.targets))

    def describe(self, query: Schema) -> str:
        """Human-readable pairing, one query element per line."""
        if query.schema_id != self.query_schema_id:
            raise MatchingError(
                f"mapping belongs to query {self.query_schema_id!r}, "
                f"not {query.schema_id!r}"
            )
        if len(query) != len(self.target_ids):
            raise MatchingError(
                f"mapping has {len(self.target_ids)} targets but the query has "
                f"{len(query)} elements"
            )
        lines = []
        for element_id, target in enumerate(self.targets):
            source = query.path_string(element_id)
            lines.append(f"  {source}  ->  {target.path_string()}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Mapping({self.query_schema_id!r} -> "
            f"{self.target_schema.schema_id!r}:{self.target_ids})"
        )


# slot setters: they bypass the raising ``__setattr__``
_set_query = Mapping.query_schema_id.__set__  # type: ignore[attr-defined]
_set_schema = Mapping.target_schema.__set__  # type: ignore[attr-defined]
_set_ids = Mapping.target_ids.__set__  # type: ignore[attr-defined]
_set_hash = Mapping._hash.__set__  # type: ignore[attr-defined]
_set_targets = Mapping._targets.__set__  # type: ignore[attr-defined]


def _init(
    mapping: Mapping,
    query_schema_id: str,
    schema: Schema,
    target_ids: tuple[int, ...],
    targets: tuple[ElementHandle, ...] | None,
) -> None:
    _set_query(mapping, query_schema_id)
    _set_schema(mapping, schema)
    _set_ids(mapping, target_ids)
    _set_hash(mapping, hash((query_schema_id, schema.schema_id, target_ids)))
    _set_targets(mapping, targets)

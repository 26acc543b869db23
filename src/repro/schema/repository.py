"""Schema repository: the searchable collection the matchers run against.

A :class:`SchemaRepository` is an immutable, indexed set of
:class:`~repro.schema.model.Schema` objects.  Matchers address elements
through :class:`ElementHandle` values — a (schema, element-id) pair with
convenience accessors — which are hashable and cheap, so answer sets and
mappings can be compared across systems.

Repositories evolve by construction, not mutation:
:meth:`SchemaRepository.apply` takes a
:class:`~repro.schema.delta.RepositoryDelta` and returns a *new*
repository plus a :class:`~repro.schema.delta.DeltaReport` describing —
at schema granularity, in content digests — exactly what changed.
Untouched :class:`Schema` objects are shared between the versions, so
their memoised digests (and everything keyed on them: score matrices,
token-index groups, candidate-cache entries) stay valid for free.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import SchemaError
from repro.schema.model import Datatype, Schema, SchemaElement

if TYPE_CHECKING:  # pragma: no cover - type-only (delta imports this module's types)
    from repro.schema.delta import DeltaReport, RepositoryDelta

__all__ = ["ElementHandle", "SchemaRepository"]


@dataclass(frozen=True)
class ElementHandle:
    """A stable reference to one element of one repository schema."""

    schema: Schema
    element_id: int

    def __post_init__(self) -> None:
        if not 0 <= self.element_id < len(self.schema):
            self.schema.element(self.element_id)  # raises the canonical error

    @property
    def element(self) -> SchemaElement:
        return self.schema.element(self.element_id)

    @property
    def name(self) -> str:
        return self.element.name

    @property
    def datatype(self) -> Datatype:
        return self.element.datatype

    @property
    def concept(self) -> str | None:
        return self.element.concept

    @property
    def key(self) -> tuple[str, int]:
        """Hashable identity ``(schema_id, element_id)``."""
        return (self.schema.schema_id, self.element_id)

    def path_string(self) -> str:
        return f"{self.schema.schema_id}:{self.schema.path_string(self.element_id)}"

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ElementHandle):
            return NotImplemented
        return self.key == other.key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ElementHandle({self.schema.schema_id}:{self.element_id} {self.name!r})"


class SchemaRepository:
    """An immutable collection of schemas with element-level access."""

    def __init__(self, repository_id: str, schemas: list[Schema]):
        if not repository_id:
            raise SchemaError("repository_id must be non-empty")
        if not schemas:
            raise SchemaError("a repository needs at least one schema")
        self.repository_id = repository_id
        self._schemas: dict[str, Schema] = {}
        for schema in schemas:
            if schema.schema_id in self._schemas:
                raise SchemaError(
                    f"duplicate schema id {schema.schema_id!r} in repository"
                )
            self._schemas[schema.schema_id] = schema
        self._digest: str | None = None

    def __len__(self) -> int:
        return len(self._schemas)

    def __iter__(self) -> Iterator[Schema]:
        return iter(self._schemas.values())

    def __contains__(self, schema_id: str) -> bool:
        return schema_id in self._schemas

    def schema(self, schema_id: str) -> Schema:
        try:
            return self._schemas[schema_id]
        except KeyError:
            raise SchemaError(
                f"repository {self.repository_id!r} has no schema {schema_id!r}"
            ) from None

    def schemas(self) -> list[Schema]:
        return list(self._schemas.values())

    def handle(self, schema_id: str, element_id: int) -> ElementHandle:
        return ElementHandle(self.schema(schema_id), element_id)

    def all_elements(self) -> Iterator[ElementHandle]:
        """Every element of every schema, as handles."""
        for schema in self._schemas.values():
            for element_id in range(len(schema)):
                yield ElementHandle(schema, element_id)

    def element_count(self) -> int:
        """Total number of elements across all schemas."""
        return sum(len(schema) for schema in self._schemas.values())

    def content_digest(self) -> str:
        """Content hash over all schemas, in repository order (memoised).

        Two repositories with equal digests are indistinguishable to any
        matcher — repository-global preparation (clustering) and the
        pipeline's worker state key on this rather than on
        ``repository_id``, which synthetic workloads reuse across
        different contents.
        """
        if self._digest is None:
            hasher = hashlib.blake2b(digest_size=16)
            for schema in self._schemas.values():
                hasher.update(schema.content_digest().encode())
            self._digest = hasher.hexdigest()
        return self._digest

    def apply(self, delta: "RepositoryDelta") -> tuple["SchemaRepository", "DeltaReport"]:
        """Apply an edit script; returns ``(new_repository, report)``.

        Replacements keep their position in repository order, removals
        drop out, additions append (in delta order) — so two processes
        applying the same delta to the same repository produce
        digest-identical results.  The receiver is never mutated, and
        untouched ``Schema`` objects are shared with the new repository.

        Raises :class:`~repro.errors.SchemaError` when an add collides
        with an existing id, a remove/replace names an unknown id, or
        the delta would empty the repository.
        """
        from repro.schema.delta import DeltaReport

        for schema in delta.adds:
            if schema.schema_id in self._schemas:
                raise SchemaError(
                    f"cannot add schema {schema.schema_id!r}: id already in "
                    f"repository {self.repository_id!r}"
                )
        for schema_id in delta.removes:
            if schema_id not in self._schemas:
                raise SchemaError(
                    f"cannot remove schema {schema_id!r}: not in repository "
                    f"{self.repository_id!r}"
                )
        replacements = {schema.schema_id: schema for schema in delta.replaces}
        for schema_id in replacements:
            if schema_id not in self._schemas:
                raise SchemaError(
                    f"cannot replace schema {schema_id!r}: not in repository "
                    f"{self.repository_id!r}"
                )
        removed_ids = set(delta.removes)
        new_schemas: list[Schema] = []
        changed: list[str] = []
        unchanged: list[str] = []
        removed_schemas: list[Schema] = []
        replaced_old: list[Schema] = []
        for schema in self._schemas.values():
            if schema.schema_id in removed_ids:
                removed_schemas.append(schema)
                continue
            replacement = replacements.get(schema.schema_id)
            if replacement is None:
                new_schemas.append(schema)
                unchanged.append(schema.schema_id)
                continue
            replaced_old.append(schema)
            new_schemas.append(replacement)
            if replacement.content_digest() == schema.content_digest():
                unchanged.append(schema.schema_id)
            else:
                changed.append(schema.schema_id)
        new_schemas.extend(delta.adds)
        changed.extend(schema.schema_id for schema in delta.adds)
        if not new_schemas:
            raise SchemaError(
                f"delta would empty repository {self.repository_id!r}"
            )
        new_repository = SchemaRepository(self.repository_id, new_schemas)
        report = DeltaReport(
            old_digest=self.content_digest(),
            new_digest=new_repository.content_digest(),
            added=tuple(schema.schema_id for schema in delta.adds),
            removed=delta.removes,
            replaced=tuple(schema.schema_id for schema in delta.replaces),
            changed=tuple(changed),
            unchanged=tuple(unchanged),
            removed_schemas=tuple(removed_schemas),
            replaced_old=tuple(replaced_old),
        )
        return new_repository, report

    def concept_index(self) -> dict[str, list[ElementHandle]]:
        """Concept -> handles of all elements denoting it (oracle support)."""
        index: dict[str, list[ElementHandle]] = {}
        for handle in self.all_elements():
            if handle.concept is not None:
                index.setdefault(handle.concept, []).append(handle)
        return index

    def stats(self) -> dict[str, float]:
        """Basic shape statistics (used in reports and tests)."""
        sizes = [len(schema) for schema in self._schemas.values()]
        leaves = sum(len(schema.leaves()) for schema in self._schemas.values())
        return {
            "schemas": float(len(sizes)),
            "elements": float(sum(sizes)),
            "min_size": float(min(sizes)),
            "max_size": float(max(sizes)),
            "mean_size": sum(sizes) / len(sizes),
            "leaf_fraction": leaves / max(1, sum(sizes)),
            "distinct_concepts": float(len(self.concept_index())),
        }

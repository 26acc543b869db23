"""Tree-structured schema model.

A :class:`Schema` is an ordered tree of :class:`SchemaElement` nodes, the
abstraction level at which XML schema matching operates in the paper's
line of work (element names + datatypes + parent/child structure; we do
not model the full XSD type system, which none of the cited matchers use
either).

Concept provenance
------------------
Every element optionally carries a ``concept`` identifier naming the
domain concept it denotes (e.g. ``"bib:author"``).  Synthetic generation
assigns concepts, and mutation operators preserve them.  The simulated
human judge (:mod:`repro.evaluation.judge`) decides semantic correctness
of a mapping by comparing concepts — this is what stands in for the human
evaluators the paper says are unaffordable at scale.
"""

from __future__ import annotations

import enum
import hashlib
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.errors import SchemaError

__all__ = ["Datatype", "SchemaElement", "Schema"]


class Datatype(enum.Enum):
    """Leaf datatypes; a coarse but matcher-relevant set."""

    STRING = "string"
    INTEGER = "integer"
    DECIMAL = "decimal"
    DATE = "date"
    BOOLEAN = "boolean"
    IDENTIFIER = "identifier"
    COMPLEX = "complex"  # non-leaf / container elements

    @classmethod
    def parse(cls, token: str) -> "Datatype":
        """Parse a datatype token (case-insensitive)."""
        try:
            return cls(token.strip().lower())
        except ValueError:
            valid = ", ".join(d.value for d in cls)
            raise SchemaError(
                f"unknown datatype {token!r}; expected one of: {valid}"
            ) from None


@dataclass
class SchemaElement:
    """One node in a schema tree.

    Parameters
    ----------
    name:
        The element's label as it appears in the schema.
    datatype:
        Leaf datatype, or :attr:`Datatype.COMPLEX` for containers.
    concept:
        Hidden semantic identity (see module docstring); ``None`` for
        hand-written schemas without provenance.
    children:
        Ordered child elements.
    """

    name: str
    datatype: Datatype = Datatype.STRING
    concept: str | None = None
    children: list["SchemaElement"] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name or not self.name.strip():
            raise SchemaError("element name must be a non-empty string")

    def add_child(self, child: "SchemaElement") -> "SchemaElement":
        """Append ``child`` and return it (convenient for building trees)."""
        self.children.append(child)
        return child

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def walk(self) -> Iterator["SchemaElement"]:
        """Pre-order traversal of this subtree (self first)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def subtree_size(self) -> int:
        """Number of elements in this subtree, including self."""
        return sum(1 for _ in self.walk())

    def copy(self) -> "SchemaElement":
        """Deep copy of this subtree."""
        return SchemaElement(
            name=self.name,
            datatype=self.datatype,
            concept=self.concept,
            children=[child.copy() for child in self.children],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SchemaElement({self.name!r}, {self.datatype.value},"
            f" children={len(self.children)})"
        )


class Schema:
    """A named schema tree with derived indexes.

    Elements get stable integer ids in pre-order; ids, parent pointers,
    depths and paths are computed once at construction.  The tree must not
    be mutated afterwards — build a new :class:`Schema` instead (mutation
    operators in :mod:`repro.schema.mutations` follow that rule).
    """

    def __init__(self, schema_id: str, root: SchemaElement):
        if not schema_id:
            raise SchemaError("schema_id must be a non-empty string")
        self.schema_id = schema_id
        self.root = root
        self._elements: list[SchemaElement] = list(root.walk())
        self._index: dict[int, int] = {
            id(element): i for i, element in enumerate(self._elements)
        }
        if len(self._index) != len(self._elements):
            raise SchemaError(
                f"schema {schema_id!r} contains a shared/cyclic subtree; "
                "every element object must appear exactly once"
            )
        self._parents: list[int | None] = [None] * len(self._elements)
        self._depths: list[int] = [0] * len(self._elements)
        for element in self._elements:
            parent_pos = self._index[id(element)]
            for child in element.children:
                child_pos = self._index[id(child)]
                self._parents[child_pos] = parent_pos
                self._depths[child_pos] = self._depths[parent_pos] + 1
        self._digest: str | None = None
        self._ancestor_masks: tuple[int, ...] | None = None
        self._parent_ids: tuple[int | None, ...] | None = None

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[SchemaElement]:
        return iter(self._elements)

    def elements(self) -> list[SchemaElement]:
        """All elements in pre-order (index == element id)."""
        return list(self._elements)

    def element(self, element_id: int) -> SchemaElement:
        """Element with the given pre-order id."""
        try:
            return self._elements[element_id]
        except IndexError:
            raise SchemaError(
                f"schema {self.schema_id!r} has no element {element_id}"
                f" (size {len(self)})"
            ) from None

    def element_id(self, element: SchemaElement) -> int:
        """Pre-order id of ``element`` (must belong to this schema)."""
        try:
            return self._index[id(element)]
        except KeyError:
            raise SchemaError(
                f"element {element.name!r} does not belong to schema"
                f" {self.schema_id!r}"
            ) from None

    def parent_id(self, element_id: int) -> int | None:
        """Id of the parent element, or ``None`` for the root."""
        self.element(element_id)  # bounds check
        return self._parents[element_id]

    def parent_ids(self) -> tuple[int | None, ...]:
        """All parent ids in pre-order (index == element id); memoised.

        The bulk counterpart of :meth:`parent_id` for per-search setup
        paths that need every parent anyway — one tuple handed out
        instead of one bounds-checked call per element per search.
        """
        if self._parent_ids is None:
            self._parent_ids = tuple(self._parents)
        return self._parent_ids

    def depth(self, element_id: int) -> int:
        """Root distance of an element (root is depth 0)."""
        self.element(element_id)
        return self._depths[element_id]

    def path(self, element_id: int) -> tuple[str, ...]:
        """Names from the root down to the element, inclusive."""
        names: list[str] = []
        current: int | None = element_id
        while current is not None:
            names.append(self._elements[current].name)
            current = self._parents[current]
        return tuple(reversed(names))

    def path_string(self, element_id: int) -> str:
        """Slash-joined path, e.g. ``book/author/name``."""
        return "/".join(self.path(element_id))

    def ancestors(self, element_id: int) -> list[int]:
        """Ids from the element's parent up to the root."""
        out: list[int] = []
        current = self._parents[element_id]
        while current is not None:
            out.append(current)
            current = self._parents[current]
        return out

    def is_ancestor(self, ancestor_id: int, descendant_id: int) -> bool:
        """True when ``ancestor_id`` lies strictly above ``descendant_id``."""
        current = self._parents[descendant_id]
        while current is not None:
            if current == ancestor_id:
                return True
            current = self._parents[current]
        return False

    def ancestor_masks(self) -> tuple[int, ...]:
        """Per-element ancestor bitsets: bit ``a`` of ``out[d]`` is set
        exactly when :meth:`is_ancestor` (``a``, ``d``) is true.

        Computed once per schema and memoised (schemas are immutable
        after construction).  The matching engine's search loops read
        ancestry as ``(out[target] >> parent) & 1`` instead of walking
        parent chains per expansion — the hottest structural check in
        the search.  Pre-order ids guarantee a
        parent's mask is final before any child's is derived.
        """
        if self._ancestor_masks is None:
            masks = [0] * len(self._elements)
            for element_id, parent in enumerate(self._parents):
                if parent is not None:
                    masks[element_id] = masks[parent] | (1 << parent)
            self._ancestor_masks = tuple(masks)
        return self._ancestor_masks

    def content_digest(self) -> str:
        """Content hash of everything matching can observe about the schema.

        Covers the id, element names, datatypes and parent structure;
        ``concept`` provenance is deliberately excluded (only the oracle
        judge reads it).  Memoised — schemas are immutable after
        construction (see class docstring).
        """
        if self._digest is None:
            hasher = hashlib.blake2b(digest_size=16)
            hasher.update(self.schema_id.encode())
            for element_id, element in enumerate(self._elements):
                parent = self._parents[element_id]
                hasher.update(
                    f"\x1e{element.name}\x1f{element.datatype.value}"
                    f"\x1f{parent}".encode()
                )
            self._digest = hasher.hexdigest()
        return self._digest

    def leaves(self) -> list[int]:
        """Ids of all leaf elements."""
        return [i for i, e in enumerate(self._elements) if e.is_leaf]

    def concepts(self) -> set[str]:
        """The set of concepts present (ignoring elements without one)."""
        return {e.concept for e in self._elements if e.concept is not None}

    def copy(self, schema_id: str | None = None) -> "Schema":
        """Deep copy, optionally renamed."""
        return Schema(schema_id or self.schema_id, self.root.copy())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Schema({self.schema_id!r}, size={len(self)})"

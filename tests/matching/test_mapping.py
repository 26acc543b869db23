"""Unit tests for mappings (search-space elements)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.answers import Answer
from repro.errors import MatchingError
from repro.matching.mapping import Mapping
from repro.schema.model import Schema, SchemaElement
from repro.schema.repository import SchemaRepository


def repo() -> SchemaRepository:
    def build(schema_id):
        root = SchemaElement("root")
        root.add_child(SchemaElement("a"))
        root.add_child(SchemaElement("b"))
        return Schema(schema_id, root)

    return SchemaRepository("r", [build("s1"), build("s2")])


def query() -> Schema:
    root = SchemaElement("q")
    root.add_child(SchemaElement("x"))
    return Schema("query", root)


class TestMappingValidation:
    def test_requires_targets(self):
        with pytest.raises(MatchingError, match="at least one"):
            Mapping("q", ())

    def test_single_schema_enforced(self):
        repository = repo()
        targets = (repository.handle("s1", 0), repository.handle("s2", 1))
        with pytest.raises(MatchingError, match="spans repository schemas"):
            Mapping("q", targets)

    def test_injectivity_enforced(self):
        repository = repo()
        targets = (repository.handle("s1", 1), repository.handle("s1", 1))
        with pytest.raises(MatchingError, match="same target"):
            Mapping("q", targets)

    def test_valid_mapping(self):
        repository = repo()
        mapping = Mapping(
            "q", (repository.handle("s1", 0), repository.handle("s1", 2))
        )
        assert mapping.target_ids == (0, 2)
        assert mapping.target_schema.schema_id == "s1"


class TestMappingIdentity:
    def test_equality_by_key(self):
        repository = repo()
        a = Mapping("q", (repository.handle("s1", 0), repository.handle("s1", 1)))
        b = Mapping("q", (repository.handle("s1", 0), repository.handle("s1", 1)))
        assert a == b
        assert hash(a) == hash(b)

    def test_order_matters(self):
        repository = repo()
        a = Mapping("q", (repository.handle("s1", 0), repository.handle("s1", 1)))
        b = Mapping("q", (repository.handle("s1", 1), repository.handle("s1", 0)))
        assert a != b

    def test_query_id_in_identity(self):
        repository = repo()
        a = Mapping("q1", (repository.handle("s1", 0),))
        b = Mapping("q2", (repository.handle("s1", 0),))
        assert a != b

    def test_not_equal_other_types(self):
        repository = repo()
        assert Mapping("q", (repository.handle("s1", 0),)) != "something"


class TestDescribe:
    def test_describe_lists_pairs(self):
        repository = repo()
        q = query()
        mapping = Mapping(
            "query", (repository.handle("s1", 0), repository.handle("s1", 1))
        )
        text = mapping.describe(q)
        assert "q  ->  s1:root" in text
        assert "q/x  ->  s1:root/a" in text

    def test_describe_checks_query_id(self):
        repository = repo()
        mapping = Mapping("other", (repository.handle("s1", 0),))
        with pytest.raises(MatchingError, match="belongs to query"):
            mapping.describe(query())

    def test_describe_checks_arity(self):
        repository = repo()
        mapping = Mapping("query", (repository.handle("s1", 0),))
        with pytest.raises(MatchingError, match="targets but the query"):
            mapping.describe(query())


class TestCompactMapping:
    """Search-built mappings hold (query id, schema, target ids) only."""

    def pair(self):
        repository = repo()
        schema = repository.schema("s1")
        searched = Mapping._from_search("query", schema, (2, 0))
        built = Mapping(
            "query", (repository.handle("s1", 2), repository.handle("s1", 0))
        )
        return searched, built

    def test_search_built_equals_constructed(self):
        searched, built = self.pair()
        assert searched == built
        assert hash(searched) == hash(built)
        assert searched.describe(query()) == built.describe(query())

    def test_fields_match(self):
        searched, built = self.pair()
        assert searched.targets == built.targets
        assert searched.target_schema is built.target_schema
        assert searched.target_ids == built.target_ids == (2, 0)
        assert searched.key == built.key == ("query", "s1", (2, 0))

    def test_assignment_raises(self):
        searched, built = self.pair()
        for mapping in (searched, built):
            with pytest.raises(AttributeError):
                mapping.query_schema_id = "other"
            with pytest.raises(AttributeError):
                mapping.target_ids = (0, 1)
            with pytest.raises(AttributeError):
                mapping.extra = 1
            with pytest.raises(AttributeError):
                del mapping.target_schema
        assert searched == built

    def test_no_instance_dict(self):
        searched, built = self.pair()
        for mapping in (searched, built):
            assert not hasattr(mapping, "__dict__")
        assert not hasattr(Answer(searched, 0.5), "__dict__")


#: pickles a hashed ground-truth mapping and an answer set holding it
_DUMP = """
import pickle, sys
from repro.core.answers import AnswerSet
from repro.evaluation.ground_truth import enumerate_ground_truth
from repro.schema.model import Schema, SchemaElement
from repro.schema.repository import SchemaRepository

def build(schema_id, names):
    root = SchemaElement(names[0], concept=names[0])
    for name in names[1:]:
        root.add_child(SchemaElement(name, concept=name))
    return Schema(schema_id, root)

repository = SchemaRepository(
    "r", [build("s1", ["person", "name", "email", "name"])]
)
query = build("query", ["person", "name"])
truth = sorted(enumerate_ground_truth(query, repository), key=lambda m: m.key)
mapping = truth[0]
answers = AnswerSet.from_pairs([(m, 0.1 * i) for i, m in enumerate(truth)])
assert hash(mapping) in {hash(m) for m in answers.items()}  # hashed before pickling
sys.stdout.buffer.write(pickle.dumps((repository, query, mapping, answers)))
"""

#: loads them under another hash seed and compares with fresh ones
_LOAD = """
import pickle, sys
from repro.core.answers import AnswerSet
from repro.evaluation.ground_truth import enumerate_ground_truth

repository, query, loaded, loaded_set = pickle.loads(sys.stdin.buffer.read())
truth = sorted(enumerate_ground_truth(query, repository), key=lambda m: m.key)
fresh = truth[0]
fresh_set = AnswerSet.from_pairs([(m, 0.1 * i) for i, m in enumerate(truth)])
assert loaded == fresh
assert hash(loaded) == hash(fresh), "stale hash"
assert loaded in set(truth)
assert fresh in loaded_set and loaded in fresh_set
assert fresh in loaded_set.items() and loaded in fresh_set.items()
loaded_set.check_subset_of(fresh_set)
fresh_set.check_subset_of(loaded_set)
assert loaded_set.score_of(fresh) == fresh_set.score_of(loaded) == 0.0
print("ok")
"""


def _python(code: str, seed: str, stdin: bytes | None = None) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", code], input=stdin, env=env,
        capture_output=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout


def test_pickled_mapping_rehashes_in_another_process():
    """A pickle carries no hash: string hashes are salted per process."""
    payload = _python(_DUMP, "1")
    assert _python(_LOAD, "2", stdin=payload).strip() == b"ok"
